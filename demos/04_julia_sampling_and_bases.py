#!/usr/bin/env python3
"""Julia-set sampling and partition-of-unity bases.

Deep backward orbits accumulate on the Julia set, which gives a cheap
deterministic sampler.  On the sample we build bump bases: each basis
is one partition of unity, whose elements are the square roots of its
normalized bumps, subordinate to supports where the map is injective,
with angular-sector ladders around branch points that meet the set.
The normalization makes the reconstruction identity hold to roundoff
away from the branch points.
"""

import numpy as np

from lyubich_lab import (VanishingFunction, branch_points_on_julia,
                         branch_separation_radius, build_basis, builtin_map,
                         julia_sample, net_radius, reconstruct)
from lyubich_lab import test_functions as tf

quad = builtin_map("quad")
cheb = builtin_map("chebyshev")

print("== sampling the Julia set ==")
circle = julia_sample(quad, 320, seed=7)
print(f"squaring map: {circle.size} points, max | |z|-1 | = "
      f"{np.max(np.abs(np.abs(circle.points) - 1)):.1e}  (the unit circle)")
interval = julia_sample(cheb, 320, seed=7)
print(f"interval map: {interval.size} points in "
      f"[{interval.points.real.min():+.4f}, {interval.points.real.max():+.4f}]"
      f" with |Im| < {np.max(np.abs(interval.points.imag)):.1e}")

print()
print("== how small must supports be? ==")
r_circle = branch_separation_radius(quad, circle)
r_interval = branch_separation_radius(cheb, interval)
print(f"separation radius, circle:   {r_circle:.4f}  (any r < 1/2 keeps the")
print("                              two square-root branches apart)")
print(f"separation radius, interval: {r_interval:.4f}  (pinched by sample points")
print("                              approaching the branch point 0)")

print()
print("== bases ==")
for name, rmap, sample, r_sep in (("circle", quad, circle, r_circle),
                                  ("interval", cheb, interval, r_interval)):
    r = min(net_radius(sample, 24) * 1.000001, r_sep / 3)
    basis = build_basis(rmap, sample, r, count_cap=128)
    sectors = sum(1 for bump in basis.bumps if bump.sector is not None)
    members = basis.member_matrix(sample.points, sample.inf_mask)
    total = (members ** 2).sum(axis=0)
    print(f"{name}: {len(basis)} elements ({sectors} branch sectors), "
          f"sum of squares in [{total.min():.12f}, {total.max():.12f}]")
    _, residual = reconstruct(rmap, basis, tf.ONE, len(basis), sample)
    print(f"        reconstruction residual for the constant: {residual:.2e}")

print()
print("== vanishing tails near the branch point ==")
branch = branch_points_on_julia(cheb, interval)
print("branch points meeting the interval:",
      [(d.point.value, d.index) for d in branch])
r = min(net_radius(interval, 24) * 1.000001, r_interval / 3)
basis = build_basis(cheb, interval, r, count_cap=128)
bump = VanishingFunction.bump(cheb, 1.0, 0.5, sample=interval)
meets = bump.meets_elements(basis)
print(f"a bump supported in [0.5, 1.5] meets elements "
      f"{[i for i, m in enumerate(meets) if m]}")
print(f"every element past index {max(i for i, m in enumerate(meets) if m)} "
      "has disjoint support (the tail shrinks toward the branch point)")
