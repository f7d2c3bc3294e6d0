#!/usr/bin/env python3
"""The finite operator model and every identity it certifies.

The model is one application of the map: from the depth-(m-1) measure of
a preimage tree, the parents, to its depth-m measure, the children.  On
that step the composition operator is a parent-lookup matrix whose
weighted adjoint is exactly the transfer operator on atoms.  All the
structural identities of the multiplication/composition operator algebra
can therefore be checked at machine precision, with no discretization
error.
"""

import json

import numpy as np

from lyubich_lab import (build_model, builtin_map, default_basis,
                         default_root, julia_sample, verification_suite,
                         verify_frame_bound, verify_isometry)
from lyubich_lab import test_functions as tf

quad = builtin_map("quad")

print("== one level step ==")
model = build_model(quad, default_root(quad), 8)
print("parents, children:", model.parents.size, model.children.size)
print("isometry defect for a random function:",
      verify_isometry(model, tf.random_polynomial(np.random.default_rng(1), 2)))

print()
print("== frame curve: partial sums climb to the identity ==")
sample = julia_sample(quad, 384, seed=0)
basis = default_basis(quad, sample, count=32)
_, tops = verify_frame_bound(model, basis)
for n in (1, 4, 8, 16, 24, 32):
    top = tops[n - 1]
    bar = "#" * int(round(40 * top))
    print(f"  N={n:2d}  max eigenvalue {top:.6f}  |{bar}")

print()
print("== the full suite, one JSON record per identity ==")
report = verification_suite(quad, m=8, seed=7)
for record in report["results"]:
    print(" ", json.dumps(record))
print("all identities pass:", report["all_pass"])
