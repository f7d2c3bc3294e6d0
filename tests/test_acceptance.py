"""Acceptance battery: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad

from lyubich_lab import test_functions as tf
from lyubich_lab.bimodule_basis import VanishingFunction, julia_sample
from lyubich_lab.cli import main as cli_main
from lyubich_lab.lyubich_measure import (default_root, integrate,
                                         measure_from_tree,
                                         measure_match_defect, pushforward)
from lyubich_lab.operator_lab import (build_model, default_basis,
                                      verify_covariance, verify_frame_bound,
                                      verify_isometry, verify_key_lemma,
                                      verify_representation,
                                      verify_vanishing_reconstruction)
from lyubich_lab.preimage_solver import iterated_preimages
from lyubich_lab.rational_map import builtin_map
from lyubich_lab.sphere import INFINITY, SpherePoint
from lyubich_lab.transfer_operator import apply_transfer, transfer_power

BENCHMARKS = ("quad", "basilica", "chebyshev")

EXTRA_ROOTS = {
    "quad": [0.5 + 0.25j, -1.2 + 0.7j],
    "basilica": [1.0 + 0j, 0.3 - 0.8j],
    "chebyshev": [2.0 + 0j, 0.5 + 0.5j],
}


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ----------------------------------------------------------------------


def test_criterion_1_exact_invariance():
    """Pushforward of each depth-m measure equals the depth-(m-1) measure
    with exact rational weights, three maps, three roots, m <= 10."""
    start = time.monotonic()
    worst = 0.0
    all_exact = True
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        roots = [default_root(rmap)] + EXTRA_ROOTS[name]
        for w in roots:
            tree = iterated_preimages(rmap, w, 10)
            for k in range(10, 0, -1):
                pushed = pushforward(measure_from_tree(tree, k), rmap)
                target = measure_from_tree(tree, k - 1)
                defect, exact = measure_match_defect(pushed, target)
                worst = max(worst, defect)
                all_exact = all_exact and exact
    elapsed = time.monotonic() - start
    ok = all_exact and worst < 1e-8 and elapsed < 10.0
    _report("criterion-1 exact-invariance",
            ok, f"max position defect {worst:.2e}, weights exact={all_exact}, "
                f"runtime {elapsed:.1f}s")


def test_criterion_2_isometry():
    """Composition-operator isometry residual < 1e-12 over 100 random
    polynomial test functions per benchmark map at depth 8."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        model = build_model(rmap, default_root(rmap), 8)
        for _ in range(100):
            f = tf.random_polynomial(rng, 2)
            worst = max(worst, verify_isometry(model, f))
    _report("criterion-2 isometry", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_3_covariance():
    """Adjoint-conjugation covariance residual < 1e-10 over 100 random
    (a, f, g) triples per benchmark map."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        model = build_model(rmap, default_root(rmap), 8)
        for _ in range(100):
            a = tf.random_polynomial(rng, 2)
            f = tf.random_polynomial(rng, 2)
            g = tf.random_polynomial(rng, 2)
            worst = max(worst, verify_covariance(model, a, f, g))
    _report("criterion-3 covariance", worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_4_transfer_unitality_and_two_path():
    """|L(1) - 1| < 1e-12 at 1000 sample points; the level-wise power and
    the tree quadrature agree to 1e-10 for m <= 10."""
    worst_unital = 0.0
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        sample = julia_sample(rmap, 1000, seed=1)
        for i in range(sample.size):
            p = (INFINITY if sample.inf_mask[i]
                 else SpherePoint(complex(sample.points[i])))
            worst_unital = max(worst_unital,
                               abs(apply_transfer(rmap, tf.ONE, p) - 1.0))
    rng = np.random.default_rng(2026)
    worst_paths = 0.0
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        w = default_root(rmap)
        a = tf.random_polynomial(rng, 2)
        for m in range(0, 11):
            via_power = transfer_power(rmap, a, m, w)
            via_tree = integrate(
                measure_from_tree(iterated_preimages(rmap, w, m)), a)
            worst_paths = max(worst_paths, abs(via_power - via_tree))
    ok = worst_unital < 1e-12 and worst_paths < 1e-10
    _report("criterion-4 transfer", ok,
            f"max |L(1)-1| {worst_unital:.2e} over 1000 points/map, "
            f"max two-path gap {worst_paths:.2e} for m<=10")


def test_criterion_5_moment_oracles():
    """Circle and arcsine moments against independent adaptive quadrature."""
    start = time.monotonic()
    circle, err = adaptive_quad(lambda t: math.cos(t) ** 2 / (2 * math.pi),
                                0.0, 2 * math.pi)
    assert err < 1e-7
    quad_map = builtin_map("quad")
    mu12 = measure_from_tree(iterated_preimages(quad_map, 1.0, 12))
    gap_circle = abs(integrate(mu12, tf.RE2).real - circle)

    def arcsine(k):
        value, err2 = adaptive_quad(
            lambda x: x**k / (math.pi * math.sqrt(4.0 - x * x)),
            -2.0, 2.0, limit=200)
        assert err2 < 1e-6
        return value

    x2, x4 = arcsine(2), arcsine(4)
    assert abs(x2 - 2.0) < 1e-8 and abs(x4 - 6.0) < 1e-8
    cheb = builtin_map("chebyshev")
    mu14 = measure_from_tree(iterated_preimages(cheb, 2.0, 14))
    gap_x2 = abs(integrate(mu14, tf.RE2).real - x2)
    gap_x4 = abs(integrate(mu14, tf.RE4).real - x4)
    elapsed = time.monotonic() - start
    ok = gap_circle < 1e-3 and gap_x2 < 0.02 and gap_x4 < 0.1 and elapsed < 30.0
    _report("criterion-5 moments", ok,
            f"|Re^2-1/2|={gap_circle:.2e}, |x^2-2|={gap_x2:.2e}, "
            f"|x^4-6|={gap_x4:.2e}, runtime {elapsed:.1f}s")


def test_criterion_6_root_independence():
    """Integrals at depth 12 agree across two non-exceptional roots of the
    squaring map for five Lipschitz test functions."""
    quad_map = builtin_map("quad")
    functions = [tf.RE, tf.IM, tf.ABS, tf.RE2, tf.abs_distance(0.7)]
    mus = [measure_from_tree(iterated_preimages(quad_map, w, 12))
           for w in (1.0, -0.5 + 0.3j)]
    worst = max(abs(integrate(mus[0], f) - integrate(mus[1], f))
                for f in functions)
    _report("criterion-6 root-independence", worst < 1e-3,
            f"max cross-root gap {worst:.2e} over 5 Lipschitz functions")


def test_criterion_7_frame_bound():
    """Frame-sum eigenvalues within [-1e-10, 1+1e-8] and monotone in N,
    32 elements on the squaring map at depth 8."""
    quad_map = builtin_map("quad")
    sample = julia_sample(quad_map, 384, seed=0)
    basis = default_basis(quad_map, sample, count=32)
    assert len(basis) == 32
    model = build_model(quad_map, default_root(quad_map), 8)
    lows, highs = verify_frame_bound(model, basis)
    monotone = all(b >= a - 1e-10 for a, b in zip(highs, highs[1:]))
    ok = (min(lows) >= -1e-10 and max(highs) <= 1 + 1e-8 and monotone)
    _report("criterion-7 frame-bound", ok,
            f"eigenvalue range [{min(lows):.2e}, {max(highs):.10f}], "
            f"monotone={monotone}, K={len(basis)}")


def test_criterion_8_key_lemma():
    """Matrix path and fiber path of the reconstruction sum agree to 1e-10
    on every benchmark map, N up to the full basis."""
    rng = np.random.default_rng(2027)
    worst = 0.0
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        sample = julia_sample(rmap, 384, seed=0)
        basis = default_basis(rmap, sample, count=32)
        model = build_model(rmap, default_root(rmap), 8)
        for n in (0, len(basis) // 2, len(basis)):
            a = tf.random_polynomial(rng, 2)
            worst = max(worst, verify_key_lemma(model, basis, n, a))
    _report("criterion-8 key-lemma", worst < 1e-10, f"max residual {worst:.2e}")


def test_criterion_9_vanishing_tail():
    """A bump vanishing near the interval map's branch point has a finite
    element tail and reconstructs to 1e-2."""
    cheb = builtin_map("chebyshev")
    sample = julia_sample(cheb, 384, seed=0)
    basis = default_basis(cheb, sample, count=32)
    model = build_model(cheb, default_root(cheb), 8)
    vf = VanishingFunction.bump(cheb, 1.0, 0.5, sample=sample)
    M, residual = verify_vanishing_reconstruction(model, basis, vf)
    ok = 0 < M < len(basis) and residual < 1e-2
    _report("criterion-9 vanishing-tail", ok,
            f"tail index M={M} of {len(basis)}, residual {residual:.2e}")


def test_criterion_10_representation():
    """Pairing relation residual < 1e-10 over 50 random function pairs per
    benchmark map; the scalar relation holds exactly."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    exact = True
    for name in BENCHMARKS:
        rmap = builtin_map(name)
        model = build_model(rmap, default_root(rmap), 8)
        for _ in range(50):
            xi = tf.random_polynomial(rng, 2)
            eta = tf.random_polynomial(rng, 2)
            a = tf.random_polynomial(rng, 1)
            r1, r2 = verify_representation(model, xi, eta, a)
            exact = exact and r1 == 0.0
            worst = max(worst, r2)
    ok = exact and worst < 1e-10
    _report("criterion-10 representation", ok,
            f"scalar relation exact={exact}, max pairing residual {worst:.2e}")


def test_criterion_11_determinism(tmp_path, capsys):
    """Two runs of 'verify all --seed 7' produce identical reports up to
    the timestamp field."""
    argv = ["verify", "all", "--map", "quad", "--seed", "7"]
    code1 = cli_main(argv)
    first = json.loads(capsys.readouterr().out)
    code2 = cli_main(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("generated_at")
    second.pop("generated_at")
    ok = code1 == 0 and code2 == 0 and first == second
    _report("criterion-11 determinism", ok,
            f"exit codes ({code1},{code2}), reports identical={first == second}")
