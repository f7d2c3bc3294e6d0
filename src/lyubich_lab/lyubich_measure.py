"""Preimage-counting measures, quadrature, and convergence diagnostics.

The depth-m measure puts weight (branch product) / base**m on each deepest
atom of a preimage tree.  Weights are kept as integer numerators over a
power of the base, so the level-to-level pushforward identity can be
checked with exact rational arithmetic rather than approximately.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fiber
from .errors import DegenerateSample, ExceptionalRoot
from .preimage_solver import PreimageTree, iterated_preimages
from .rational_map import (RationalMap, branch_index, evaluate_array,
                           fixed_points, is_exceptional)
from .sphere import INFINITY, SpherePoint, as_point, chordal
from .test_functions import TestFunction


@dataclass
class AtomicMeasure:
    """A finite atomic probability measure with exact rational weights.

    Atom i has weight ``nums[i] / base**depth``.  The numerators are
    integers and always sum to ``base**depth`` exactly.
    """

    map: RationalMap
    root: SpherePoint
    depth: int
    base: int
    points: np.ndarray
    inf_mask: np.ndarray
    nums: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    def denominator(self) -> int:
        return self.base ** self.depth

    def weights_float(self) -> np.ndarray:
        return self.nums / float(self.denominator())

    def weight_fractions(self) -> list[Fraction]:
        d = self.denominator()
        return [Fraction(int(n), d) for n in self.nums]

    def atoms(self) -> list[tuple[SpherePoint, Fraction]]:
        d = self.denominator()
        out = []
        for i in range(self.size):
            p = INFINITY if self.inf_mask[i] else SpherePoint(complex(self.points[i]))
            out.append((p, Fraction(int(self.nums[i]), d)))
        return out

    def validate(self) -> None:
        if np.any(self.nums <= 0):
            raise ValueError("weights must be positive")
        if int(self.nums.sum()) != self.denominator():
            raise ValueError("weights do not sum to one exactly")

    def to_csv(self, path) -> None:
        """Columns re, im, weight_num, weight_depth; weight = num/base**depth."""
        import csv
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["re", "im", "weight_num", "weight_depth"])
            for i in range(self.size):
                if self.inf_mask[i]:
                    re, im = "inf", "inf"
                else:
                    re = repr(float(self.points[i].real))
                    im = repr(float(self.points[i].imag))
                writer.writerow([re, im, int(self.nums[i]), self.depth])


def measure_from_tree(tree: PreimageTree, level: int | None = None) -> AtomicMeasure:
    """The atomic measure carried by a tree level (deepest by default)."""
    k = tree.depth if level is None else int(level)
    lvl = tree.level(k)
    mu = AtomicMeasure(
        map=tree.map,
        root=tree.root,
        depth=k,
        base=tree.weight_base,
        points=lvl.points.copy(),
        inf_mask=lvl.infinite.copy(),
        nums=lvl.cum.astype(np.int64).copy(),
    )
    mu.validate()
    return mu


def integrate(mu: AtomicMeasure, f: TestFunction) -> complex:
    """Quadrature sum(f(atom) * weight) with compensated summation.

    Weights become floating point only at the final accumulation; each
    num/denominator is an exact dyadic-style division for the desk-scale
    denominators used here.
    """
    values = f.evaluate(mu.points, mu.inf_mask)
    w = mu.weights_float()
    re = math.fsum((values.real * w).tolist())
    im = math.fsum((values.imag * w).tolist())
    return complex(re, im)


def pushforward(mu: AtomicMeasure, rmap: RationalMap) -> AtomicMeasure:
    """Image measure under the map, atoms merged by chordal clustering.

    Numerators add exactly, so for a depth-m tree measure the result
    equals the depth-(m-1) measure of the same tree in exact rational
    arithmetic (atom positions agree to the clustering tolerance).
    """
    if mu.depth < 1:
        raise ValueError("pushforward needs depth >= 1")
    images, inf_mask = evaluate_array(rmap, mu.points, mu.inf_mask)

    order = np.lexsort((images.imag, images.real, inf_mask))
    merged_pts: list[complex] = []
    merged_inf: list[bool] = []
    merged_num: list[int] = []
    for idx in order:
        z = complex(images[idx])
        isinf = bool(inf_mask[idx])
        num = int(mu.nums[idx])
        match = -1
        for j in range(len(merged_pts) - 1, -1, -1):
            if merged_inf[j] != isinf:
                continue
            if isinf:
                match = j
                break
            if abs(merged_pts[j].real - z.real) > _fiber.CLUSTER_RADIUS:
                break
            a = SpherePoint(merged_pts[j])
            if chordal(a, SpherePoint(z)) <= _fiber.CLUSTER_RADIUS:
                match = j
                break
        if match < 0:
            merged_pts.append(z)
            merged_inf.append(isinf)
            merged_num.append(num)
        else:
            total = merged_num[match] + num
            if not isinf:
                merged_pts[match] = (merged_pts[match] * merged_num[match]
                                     + z * num) / total
            merged_num[match] = total

    out = AtomicMeasure(
        map=mu.map,
        root=mu.root,
        depth=mu.depth,
        base=mu.base,
        points=np.array(merged_pts, dtype=complex),
        inf_mask=np.array(merged_inf, dtype=bool),
        nums=np.array(merged_num, dtype=np.int64),
    )
    out.validate()
    return out


def measure_match_defect(a: AtomicMeasure, b: AtomicMeasure,
                         position_tol: float = 1e-8) -> tuple[float, bool]:
    """Match atoms by nearest position; report the worst position error
    and whether every matched pair has exactly equal rational weight.

    An unmatched atom reports position error inf.  The clustering
    invariant keeps distinct atoms much farther apart than the tolerance,
    so nearest matching is unambiguous.
    """
    if a.size != b.size:
        return float("inf"), False
    fa, fb = a.weight_fractions(), b.weight_fractions()

    fin_b = np.nonzero(~b.inf_mask)[0]
    order = fin_b[np.argsort(b.points[fin_b].real)]
    b_re = b.points[order].real
    inf_b = [int(j) for j in np.nonzero(b.inf_mask)[0]]
    used = np.zeros(b.size, dtype=bool)

    worst = 0.0
    weights_exact = True
    for i in range(a.size):
        if a.inf_mask[i]:
            match = next((j for j in inf_b if not used[j]), None)
            if match is None:
                return float("inf"), False
            best = 0.0
        else:
            z = complex(a.points[i])
            lo = np.searchsorted(b_re, z.real - position_tol, side="left")
            hi = np.searchsorted(b_re, z.real + position_tol, side="right")
            match, best = None, position_tol
            pa = SpherePoint(z)
            for idx in range(lo, hi):
                j = int(order[idx])
                if used[j]:
                    continue
                d = chordal(pa, SpherePoint(complex(b.points[j])))
                if d <= best:
                    match, best = j, d
            if match is None:
                return float("inf"), False
        if fa[i] != fb[match]:
            weights_exact = False
        used[match] = True
        worst = max(worst, best)
    return worst, weights_exact


def measures_match(a: AtomicMeasure, b: AtomicMeasure,
                   position_tol: float = 1e-8) -> bool:
    """Same atoms to ``position_tol`` and exactly equal rational weights."""
    defect, exact = measure_match_defect(a, b, position_tol)
    return exact and defect <= position_tol


# ----------------------------------------------------------------------
# root conventions and convergence diagnostics

_FALLBACK_ROOTS = [0.31 + 0.17j, -0.41 + 0.23j, 0.11 - 0.37j, 1.03 + 0.51j,
                   -0.73 - 0.29j, 0.57 + 0.93j]


def default_root(rmap: RationalMap) -> SpherePoint:
    """Deterministic root for measure approximation.

    A repelling fixed point when one exists (lexicographically first),
    otherwise the first point in a fixed scan list that is neither
    exceptional nor critical.  The limit measure does not depend on the
    choice; fixing one makes runs reproducible.
    """
    repelling = []
    for p, lam in fixed_points(rmap):
        if p.infinite or lam is None:
            continue
        if abs(lam) > 1 + 1e-9 and not is_exceptional(rmap, p):
            repelling.append(p)
    if repelling:
        return min(repelling, key=lambda q: q.sort_key())
    for z in _FALLBACK_ROOTS:
        p = SpherePoint(z)
        if not is_exceptional(rmap, p) and branch_index(rmap, p) == 1:
            return p
    raise DegenerateSample("no suitable non-exceptional root found")


def convergence_report(rmap: RationalMap, roots, depths, fs) -> dict:
    """Integrals of each function against the depth-m measures.

    Returns a diagnostic report (no pass/fail): one record per
    (function, root, depth) with the value, the difference from the
    previous depth, and the spread across roots at that depth.
    """
    roots = [as_point(r) for r in roots]
    depths = sorted(int(m) for m in depths)
    for r in roots:
        if is_exceptional(rmap, r):
            raise ExceptionalRoot(f"root {r!r} is exceptional")

    values = {}
    for ri, root in enumerate(roots):
        tree = iterated_preimages(rmap, root, depths[-1])
        for m in depths:
            mu = measure_from_tree(tree, m)
            for fi, f in enumerate(fs):
                values[(fi, ri, m)] = integrate(mu, f)

    records = []
    for fi, f in enumerate(fs):
        for ri, root in enumerate(roots):
            prev = None
            for m in depths:
                v = values[(fi, ri, m)]
                across = [values[(fi, rj, m)] for rj in range(len(roots))]
                spread = max(abs(x - y) for x in across for y in across)
                records.append({
                    "map": rmap.describe(),
                    "w": [root.value.real, root.value.imag] if not root.infinite else "inf",
                    "m": m,
                    "f": f.name,
                    "value": [v.real, v.imag],
                    "diff_prev_m": None if prev is None else abs(v - prev),
                    "spread_across_w": spread,
                })
                prev = v
    return {"records": records,
            "roots": [[r.value.real, r.value.imag] if not r.infinite else "inf"
                      for r in roots],
            "depths": depths,
            "functions": [f.name for f in fs]}
