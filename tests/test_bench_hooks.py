"""The benchmark's layer tracer must find every name it wraps in the package.

The tracer in ``bench/tracing.py`` patches package functions by name, so a
refactor that renames or removes one of them breaks the benchmark; these
checks catch that in the ordinary test run.
"""

import os
import sys

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
import tracing  # noqa: E402
sys.path.remove(BENCH)

from lyubich_lab import (bimodule_basis, preimage_solver,  # noqa: E402
                         transfer_operator)
from lyubich_lab.lyubich_measure import default_root  # noqa: E402
from lyubich_lab.operator_lab import default_basis  # noqa: E402
from lyubich_lab.rational_map import (RationalMap, builtin_map,  # noqa: E402
                                      exceptional_points)
from lyubich_lab.sphere import INFINITY  # noqa: E402
from lyubich_lab.test_functions import random_polynomial  # noqa: E402


def test_tracer_installs_and_restores_every_wrapper():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = set(tracing.wrappers_installed())
        for name in ("lyubich_lab.preimage_solver.preimages",
                     "lyubich_lab.preimage_solver.iterated_preimages",
                     "lyubich_lab.preimage_solver.sampled_tree",
                     "lyubich_lab.transfer_operator.preimages",
                     "lyubich_lab.transfer_operator.cached_fiber",
                     "lyubich_lab.operator_lab.build_model",
                     "lyubich_lab._fiber.solve_fiber"):
            assert name in installed

        # Each tree build is one span; the trees never use the fiber cache.
        quad = builtin_map("quad")
        tracer.reset()
        preimage_solver.iterated_preimages(quad, 1, 3)
        preimage_solver.sampled_tree(quad, 1, 3, branches_per_node=1, seed=0)
        assert tracer.calls("preimage_solver.tree") == 2
        assert tracer.counter("preimage_solver.atoms") == 15 + 4
        assert tracer.calls("transfer_operator.cached_fiber") == 0

        # A cache miss solves through the transfer operator's own alias.
        transfer_operator.clear_fiber_cache()
        transfer_operator.cached_fiber(quad, 0.37 + 0.1j)
        transfer_operator.cached_fiber(quad, 0.37 + 0.1j)
        assert tracer.calls("transfer_operator.cached_fiber") == 2
        assert tracer.calls("transfer_operator.fiber_miss") == 1
    finally:
        tracer.restore()
    assert not tracing.wrappers_installed()


def test_fiber_solve_span_counts_only_single_point_solves():
    # Tree levels go through the batched engine, infinite atoms and double
    # poles included; ``fiber.solve`` counts one-point solves only.  The
    # map's exceptional-point search, which also solves single fibers, runs
    # once per map beforehand.
    quad = builtin_map("quad")
    newton = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")
    exceptional_points(quad)
    exceptional_points(newton)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        preimage_solver.iterated_preimages(quad, 1, 6)
        assert tracer.calls("fiber.solve") == 0

        # Newton's map of z^3 - 1 fixes infinity: each level holds one
        # infinite atom, whose fiber holds the double pole 0.
        tracer.reset()
        tree = preimage_solver.iterated_preimages(newton, INFINITY, 5)
        assert sum(int(lvl.infinite.sum()) for lvl in tree.levels[:-1]) == 5
        assert tracer.calls("fiber.solve") == 0
        preimage_solver.preimages(newton, INFINITY)
        assert tracer.calls("fiber.solve") == 1
    finally:
        tracer.restore()
    assert not tracing.wrappers_installed()


def test_point_arrays_skip_the_cache_and_the_scalar_path():
    # A basilica level and sample hold no critical value and no infinity,
    # nor does the backward orbit of a level atom, so every fiber of them is
    # solved by the batched engine.
    basilica = builtin_map("basilica")
    level = preimage_solver.iterated_preimages(basilica, default_root(basilica), 8).level(8)
    sample = bimodule_basis.julia_sample(basilica, 200, seed=1)
    basis = default_basis(basilica, sample)
    xi = random_polynomial(np.random.default_rng(46), 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        transfer_operator.gather_fibers(basilica, level.points, level.infinite)
        transfer_operator.gather_fibers(basilica, level.points, level.infinite,
                                        siblings=True)
        transfer_operator.sup_norm_2(basilica, xi, sample.sphere_points())
        bimodule_basis.reconstruct(basilica, basis, xi, len(basis), sample)
        transfer_operator.transfer_power(basilica, xi, 8, level.atom(0))
        assert tracer.calls("transfer_operator.cached_fiber") == 0
        assert tracer.calls("fiber.solve") == 0
    finally:
        tracer.restore()
    assert not tracing.wrappers_installed()
