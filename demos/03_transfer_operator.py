#!/usr/bin/env python3
"""The fiber-averaging transfer operator and the module inner product.

The operator averages a function over each fiber with branch-index
weights.  Its m-fold power evaluated at a point must equal quadrature of
the depth-m measure rooted there; the two computations share no code path
beyond the fiber solver, so their agreement is a strong end-to-end check.
"""

import numpy as np

from lyubich_lab import (apply_transfer, builtin_map, inner_product,
                         integrate, iterated_preimages, julia_sample,
                         measure_from_tree, sup_norm_2, transfer_power)
from lyubich_lab import test_functions as tf

quad = builtin_map("quad")
cheb = builtin_map("chebyshev")

print("== one application ==")
w = 0.3 + 0.2j
print("transfer of 1 at w:     ", apply_transfer(quad, tf.ONE, w), " (always 1)")
print("transfer of z at w:     ", abs(apply_transfer(quad, tf.Z, w)),
      " (the two square roots cancel)")
print("transfer of |z|^2 at w: ", apply_transfer(quad, tf.ABS2, w).real,
      " = |w| =", abs(w))

print()
print("== fiber tables vs tree quadrature ==")
a = tf.random_polynomial(np.random.default_rng(0), 2)
for m in (1, 4, 8, 10):
    via_power = transfer_power(cheb, a, m, 2.0)
    via_tree = integrate(measure_from_tree(iterated_preimages(cheb, 2.0, m)), a)
    print(f"  m={m:2d}  fibers {via_power:+.12f}   tree quadrature "
          f"{via_tree:+.12f}   gap {abs(via_power - via_tree):.1e}")

print()
print("== the module inner product ==")
ip = inner_product(quad, tf.Z, tf.Z)
for w in (0.5 + 0.1j, 2.0 + 0j):
    print(f"  <z, z>({w}) = {ip(w).real:.6f}   (equals |w| for the squaring map)")

sample = julia_sample(quad, 128, seed=0).sphere_points()
print("sup norm of the coordinate over a circle sample:",
      f"{sup_norm_2(quad, tf.Z, sample):.6f}")
