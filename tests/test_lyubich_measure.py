import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from lyubich_lab.errors import ExceptionalRoot, IncompatibleTable
from lyubich_lab.lyubich_measure import (compensated_sum, convergence_report,
                                         default_root, integrate, measure_from_tree,
                                         measure_match_defect, measures_match,
                                         pushforward)
from lyubich_lab.preimage_solver import iterated_preimages, sampled_tree
from lyubich_lab.rational_map import RationalMap, builtin_map
from lyubich_lab import lyubich_measure, test_functions as tf


@pytest.fixture(scope="module")
def quad_map():
    return builtin_map("quad")


@pytest.fixture(scope="module")
def cheb():
    return builtin_map("chebyshev")


def arcsine_moment(k: int) -> float:
    """Independent adaptive quadrature of x^k against 1/(pi sqrt(4-x^2))."""
    value, err = quad(lambda x: x**k / (math.pi * math.sqrt(4.0 - x * x)),
                      -2.0, 2.0, limit=200)
    assert err < 1e-6
    return value


def circle_moment_re2() -> float:
    """Independent quadrature of Re(z)^2 on the unit circle."""
    value, err = quad(lambda t: math.cos(t) ** 2 / (2 * math.pi), 0, 2 * math.pi)
    assert err < 1e-7
    return value


# ----------------------------------------------------------------------
# measures from trees


def test_measure_fourth_roots(quad_map):
    mu = measure_from_tree(iterated_preimages(quad_map, 1, 2))
    assert mu.size == 4
    assert all(w == Fraction(1, 4) for _, w in mu.atoms())


def test_measure_hand_solved_cheb(cheb):
    mu = measure_from_tree(iterated_preimages(cheb, 2, 2))
    weights = {round(p.value.real, 9): w for p, w in mu.atoms()}
    assert weights == {2.0: Fraction(1, 4), -2.0: Fraction(1, 4),
                       0.0: Fraction(1, 2)}


def test_measure_depth_zero(quad_map):
    mu = measure_from_tree(iterated_preimages(quad_map, 0.5 + 0.5j, 0))
    assert mu.size == 1
    assert mu.atoms()[0][1] == Fraction(1)


def test_weights_sum_to_one_exactly(cheb):
    tree = iterated_preimages(cheb, 0.3, 9)
    for k in range(10):
        mu = measure_from_tree(tree, k)
        assert sum(weight for _, weight in mu.atoms()) == 1


# ----------------------------------------------------------------------
# quadrature


def test_integrate_constant_is_exact(quad_map):
    mu = measure_from_tree(iterated_preimages(quad_map, 1, 12))
    assert integrate(mu, tf.ONE) == 1.0


def test_integrate_z_vanishes_by_symmetry(quad_map):
    for m in (1, 3, 6):
        mu = measure_from_tree(iterated_preimages(quad_map, 1.7, m))
        assert abs(integrate(mu, tf.Z)) < 1e-12


def test_integrate_circle_moment(quad_map):
    mu = measure_from_tree(iterated_preimages(quad_map, 1, 12))
    assert abs(integrate(mu, tf.RE2).real - circle_moment_re2()) < 1e-3


def test_integrate_arcsine_moments(cheb):
    mu = measure_from_tree(iterated_preimages(cheb, 2, 14))
    x2, x4 = arcsine_moment(2), arcsine_moment(4)
    assert x2 == pytest.approx(2.0, abs=1e-8)
    assert x4 == pytest.approx(6.0, abs=1e-8)
    assert abs(integrate(mu, tf.RE2).real - x2) < 0.02
    assert abs(integrate(mu, tf.RE4).real - x4) < 0.1


def test_integrate_incompatible_table(quad_map):
    mu = measure_from_tree(iterated_preimages(quad_map, 1, 3))
    other = np.zeros(mu.size, dtype=complex)
    table = tf.TestFunction.from_table(other, np.zeros(mu.size, bool),
                                       np.ones(mu.size, dtype=complex))
    with pytest.raises(IncompatibleTable):
        integrate(mu, table)


# ----------------------------------------------------------------------
# pushforward


def test_pushforward_simple(quad_map):
    mu2 = measure_from_tree(iterated_preimages(quad_map, 1, 2))
    mu1 = pushforward(mu2, quad_map)
    atoms = {round(p.value.real, 9): w for p, w in mu1.atoms()}
    assert atoms == {1.0: Fraction(1, 2), -1.0: Fraction(1, 2)}


def test_pushforward_depth_one_is_root(quad_map):
    tree = iterated_preimages(quad_map, 0.25 + 1j, 1)
    mu = pushforward(measure_from_tree(tree), quad_map)
    assert mu.size == 1
    assert abs(mu.points[0] - (0.25 + 1j)) < 1e-10
    assert mu.atoms()[0][1] == 1


def test_pushforward_merges_double_root(cheb):
    mu2 = measure_from_tree(iterated_preimages(cheb, 2, 2))
    mu1 = pushforward(mu2, cheb)
    atoms = {round(p.value.real, 9): w for p, w in mu1.atoms()}
    assert atoms == {2.0: Fraction(1, 2), -2.0: Fraction(1, 2)}


@pytest.mark.parametrize("name, root, depth", [
    pytest.param("quad", None, 10, id="quad"),
    pytest.param("basilica", None, 10, id="basilica"),
    pytest.param("chebyshev", None, 10, id="chebyshev"),
    # Level-13 atoms crowd within 6e-7 of each other near -2 and 2, closer
    # than any distance rule could keep apart.
    pytest.param("chebyshev", 2, 14, id="chebyshev-at-2"),
])
def test_exact_level_identity(name, root, depth):
    rmap = builtin_map(name)
    tree = iterated_preimages(rmap, default_root(rmap) if root is None else root, depth)
    for k in range(depth, 0, -1):
        pushed = pushforward(measure_from_tree(tree, k), rmap)
        target = measure_from_tree(tree, k - 1)
        assert pushed.size == target.size
        defect, exact = measure_match_defect(pushed, target)
        assert exact, f"weights differ at level {k}"
        assert defect < 1e-8
    if root == 2:
        assert tree.atom_count(depth - 1) == 4097


# Planted faults: each corrupts one copy of a tree that passes, and the
# pushforward of level k must then stop matching level k-1.


@pytest.fixture(scope="module")
def basilica_tree():
    basilica = builtin_map("basilica")
    return iterated_preimages(basilica, default_root(basilica), 8)


def invariance(tree, k):
    pushed = pushforward(measure_from_tree(tree, k), tree.map)
    return measure_match_defect(pushed, measure_from_tree(tree, k - 1))


def test_swapped_parents_break_invariance(basilica_tree):
    defect, exact = invariance(basilica_tree, 8)
    assert exact and defect <= 1e-8
    tree = copy.deepcopy(basilica_tree)
    parent = tree.level(8).parent
    i, j = 0, int(np.flatnonzero(parent != parent[0])[0])
    parent[[i, j]] = parent[[j, i]]
    defect, exact = invariance(tree, 8)
    assert exact  # every basilica atom is simple, so only positions show it
    assert defect > 1e-8


@pytest.mark.parametrize("level", [8, 7])
def test_moved_atom_breaks_invariance(basilica_tree, level):
    tree = copy.deepcopy(basilica_tree)
    points = tree.level(level).points
    # The atom of largest modulus: its image moves by |2z| * 1e-7, not less.
    points[np.argmax(np.abs(points))] += 1e-7
    defect, _ = invariance(tree, 8)
    assert defect > 1e-8


def test_every_child_image_is_checked(basilica_tree):
    # Moving both children z and -z of one atom by the same step moves their
    # images z^2 + c apart by 4 z * 1e-7 but their mean only by 1e-14.
    tree = copy.deepcopy(basilica_tree)
    lvl = tree.level(8)
    i = int(np.argmax(np.abs(lvl.points)))
    lvl.points[lvl.parent == lvl.parent[i]] += 1e-7
    pushed = pushforward(measure_from_tree(tree, 8), tree.map)
    target = measure_from_tree(tree, 7)
    j = lvl.parent[i]
    assert abs(pushed.points[j] - target.points[j]) < 1e-12
    defect, exact = measure_match_defect(pushed, target)
    assert exact
    assert defect > 1e-8


def test_swapped_cum_breaks_exact_weights():
    cheb = builtin_map("chebyshev")
    tree = copy.deepcopy(iterated_preimages(cheb, 2, 6))
    lvl = tree.level(6)
    i = int(np.flatnonzero(lvl.cum == 2)[0])
    j = int(np.flatnonzero((lvl.cum == 1) & (lvl.parent != lvl.parent[i]))[0])
    lvl.cum[[i, j]] = lvl.cum[[j, i]]
    pushed = pushforward(measure_from_tree(tree, 6), tree.map)
    _, exact = measure_match_defect(pushed, measure_from_tree(tree, 5))
    assert not exact
    assert not measures_match(pushed, measure_from_tree(tree, 5))


def test_newton_map_at_infinity_passes_every_level():
    # Newton's map of z^3 - 1: 0 is a double pole and infinity a fixed point,
    # so every level below the root holds infinite atoms and poles.
    newton = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton")
    tree = iterated_preimages(newton, complex("inf"), 6)
    for k in range(6, 0, -1):
        assert tree.level(k).inf_mask.any()
        defect, exact = invariance(tree, k)
        assert exact and defect <= 1e-8, f"level {k}"


@pytest.mark.parametrize("branches", [None, 1, 2])
def test_a_tree_level_is_its_measure(branches):
    # z^3 - 3z, fully enumerated and sampled with fewer branches than its
    # degree: the measure of a level is the level, with no copy.
    cubic = RationalMap([0, -3, 0, 1], [1])
    tree = (iterated_preimages(cubic, -2, 4) if branches is None
            else sampled_tree(cubic, -2, 4, branches, seed=3))
    base = cubic.degree if branches is None else branches
    for k in range(tree.depth + 1):
        mu = measure_from_tree(tree, k)
        assert mu is tree.level(k)
        assert mu.map is cubic and mu.root == tree.root
        assert (mu.depth, mu.base) == (k, base)
        assert int(mu.cum.sum()) == base ** k
    assert measure_from_tree(tree) is tree.level(4)


def test_pushforward_rejects_measures_off_their_tree(quad_map):
    mu = measure_from_tree(iterated_preimages(quad_map, 1, 3))
    with pytest.raises(ValueError, match="tree level"):
        pushforward(dataclasses.replace(mu, parent=None), quad_map)
    with pytest.raises(ValueError, match="map"):
        pushforward(mu, builtin_map("quad"))


# ----------------------------------------------------------------------
# root independence and convergence reports


def test_root_independence_quad(quad_map):
    lipschitz = [tf.RE, tf.IM, tf.ABS, tf.RE2, tf.abs_distance(0.7)]
    mus = [measure_from_tree(iterated_preimages(quad_map, w, 12))
           for w in (1.0, -0.5 + 0.3j)]
    for f in lipschitz:
        a = integrate(mus[0], f)
        b = integrate(mus[1], f)
        assert abs(a - b) < 1e-3


@pytest.mark.parametrize("name,root", [("chebyshev", 2.0), ("quad", 1.0)])
def test_callable_integrals_match_scalar_abs_bit_for_bit(name, root):
    # The array callables take |z - c| as hypot of the parts, which rounds
    # as the scalar abs(complex) does, so the measure reports keep their
    # bytes; np.abs of a complex array differs in the last bit on the circle.
    mu = measure_from_tree(iterated_preimages(builtin_map(name), root, 10))
    weights = mu.weights
    for f, center in ((tf.ABS, 0j), (tf.abs_distance(0.7), 0.7 + 0j)):
        scalar = [abs(complex(z) - center) for z in mu.points]
        assert f.evaluate(mu.points, mu.inf_mask).real.tolist() == scalar
        want = math.fsum(a * w for a, w in zip(scalar, weights))
        assert integrate(mu, f) == complex(want, 0.0)


def test_convergence_report_structure(quad_map):
    report = convergence_report(quad_map, [1.0, 2.0 + 1j], [2, 4, 6],
                                [tf.ONE, tf.RE2])
    records = report["records"]
    assert len(records) == 2 * 2 * 3
    for rec in records:
        assert set(rec) == {"map", "w", "m", "f", "value", "diff_prev_m",
                            "spread_across_w"}
    ones = [rec for rec in records if rec["f"] == "1"]
    assert all(rec["value"][0] == 1.0 and rec["value"][1] == 0.0 for rec in ones)
    assert all(rec["spread_across_w"] == 0.0 for rec in ones)


def test_convergence_report_rejects_exceptional(quad_map):
    with pytest.raises(ExceptionalRoot):
        convergence_report(quad_map, [0.0], [2], [tf.ONE])


def test_default_root_is_repelling_fixed_point(quad_map, cheb):
    assert default_root(quad_map).value == 1.0
    assert default_root(cheb).value == -1.0
    bas = builtin_map("basilica")
    w = default_root(bas)
    assert abs(w.value - (1 - math.sqrt(5)) / 2) < 1e-9


# ----------------------------------------------------------------------
# export


def test_measure_csv(tmp_path, cheb):
    mu = measure_from_tree(iterated_preimages(cheb, 2, 3))
    path = tmp_path / "mu.csv"
    mu.to_csv(path)
    import csv
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["re", "im", "weight_num", "weight_depth"]
    total = sum(int(r[2]) for r in rows[1:])
    assert total == mu.denominator()
    assert all(int(r[3]) == 3 for r in rows[1:])


def test_compensated_sum_takes_one_sum_per_row():
    rng = np.random.default_rng(2)
    # cancelling terms, where a plain sum loses every digit
    re = np.concatenate([rng.standard_normal((4, 50)) * 1e16, rng.standard_normal((4, 50))],
                        axis=1)
    re = np.concatenate([re, -re[:, :50]], axis=1)
    im = rng.standard_normal((4, 150))
    rows = compensated_sum(re, im)
    assert rows.shape == (4,)
    for i in range(4):
        assert rows[i] == complex(math.fsum(re[i]), math.fsum(im[i]))
        assert rows[i] == compensated_sum(re[i], im[i])
        assert compensated_sum(re[i]) == math.fsum(re[i])
    assert compensated_sum(re).tolist() == [math.fsum(row) for row in re]
    assert compensated_sum(np.zeros(0), np.zeros(0)) == 0j


def _fsum_rows(terms):
    """The reference: math.fsum of each row."""
    return np.array([math.fsum(row) for row in np.atleast_2d(terms).tolist()])


def _assert_fsum_bits(re, im=None):
    """compensated_sum has the bits of per-row math.fsum, complex or real."""
    got = compensated_sum(re, im)
    want = _fsum_rows(re) if im is None else _fsum_rows(re) + 0j
    if im is not None:
        want.imag = _fsum_rows(im)
    if np.ndim(re) == 1:
        assert type(got) is (float if im is None else complex)
        got = np.array([got])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _wide(rng, shape, low, high):
    """Random terms of both signs with binary exponents spread over [low, high)."""
    return rng.standard_normal(shape) * np.exp2(rng.integers(low, high, shape))


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (31, 512), (7, 256), (2, 8193), (1, 20000),
                                   (5, 4096), (40,), (9000,)])
def test_compensated_sum_is_fsum_on_random_rows(shape):
    rng = np.random.default_rng(sum(shape))
    _assert_fsum_bits(rng.standard_normal(shape), rng.standard_normal(shape))
    _assert_fsum_bits(rng.standard_normal(shape) * 1e-5)
    # exponents over most of the binned band, and beyond it, where fsum
    # takes the whole array
    _assert_fsum_bits(_wide(rng, shape, -800, 800), _wide(rng, shape, -60, 60))
    _assert_fsum_bits(_wide(rng, shape, -1000, 1000))


def test_compensated_sum_is_fsum_on_cancelling_rows():
    rng = np.random.default_rng(5)
    big = _wide(rng, (6, 300), -40, 900)
    small = rng.standard_normal((6, 300))
    # every big term and its negative, in shuffled places, around small ones
    re = rng.permuted(np.concatenate([big, -big, small], axis=1), axis=1)
    _assert_fsum_bits(re, rng.permuted(np.concatenate([big, small, -big], axis=1), axis=1))
    _assert_fsum_bits(np.array([1e300, 1.0, -1e300, 2.0 ** -900]))
    _assert_fsum_bits(np.array([2.0 ** 900, 1.0, -(2.0 ** 900), 2.0 ** -899]))
    rows = np.array([[1e16, 1.0, -1e16], [1.0, 1e100, -1e100]])
    assert compensated_sum(rows).tolist() == [1.0, 1.0]


def test_compensated_sum_rounds_ties_to_even():
    half = 2.0 ** -53
    tiny = 2.0 ** -200
    rows = np.array([[1.0, half, 0.0], [1.0, half, tiny], [1.0, half, -tiny],
                     [1.0 + 2 * half, half, 0.0], [-1.0, -half, 0.0], [-1.0, -half, -tiny]])
    _assert_fsum_bits(rows)
    assert compensated_sum(rows).tolist() == [1.0, 1.0 + 2 * half, 1.0, 1.0 + 4 * half,
                                              -1.0, -1.0 - 2 * half]


def test_compensated_sum_of_subnormal_and_zero_rows():
    tiny = 5e-324
    assert compensated_sum(np.array([tiny, tiny])) == 1e-323
    _assert_fsum_bits(np.array([[tiny, tiny, 0.0], [2.0 ** -1022, -tiny, tiny]]))
    _assert_fsum_bits(np.array([[-0.0, -0.0], [0.0, -0.0], [0.0, 0.0], [1.0, -1.0]]),
                      np.array([[-0.0, 0.0], [-0.0, -0.0], [-1.5, 1.5], [0.0, -0.0]]))
    _assert_fsum_bits(np.zeros((3, 9000)), -np.zeros((3, 9000)))


def test_compensated_sum_of_empty_arrays():
    assert compensated_sum(np.zeros(0)) == 0.0 and type(compensated_sum(np.zeros(0))) is float
    assert compensated_sum(np.zeros(0), np.zeros(0)) == 0j
    _assert_fsum_bits(np.zeros(0))
    _assert_fsum_bits(np.zeros((4, 0)), np.zeros((4, 0)))
    _assert_fsum_bits(np.zeros((4, 0)))


def test_compensated_sum_fills_a_bin_with_a_whole_block():
    # 8192 terms with the largest mantissa in one (row, exponent) bin
    top = 1.0 - 2.0 ** -53
    _assert_fsum_bits(np.full((2, 8192), top), np.full((2, 8192), -top * 2.0 ** 40))
    _assert_fsum_bits(np.full(3 * 8192 + 1, top * 2.0 ** 899))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_compensated_sum_does_not_depend_on_the_block_size(monkeypatch, block):
    rng = np.random.default_rng(block)
    re, im = _wide(rng, (7, 37), -300, 300), rng.standard_normal((7, 37))
    want = compensated_sum(re, im)
    monkeypatch.setattr(lyubich_measure, "_SUM_BLOCK", block)
    assert compensated_sum(re, im).tobytes() == want.tobytes()
    _assert_fsum_bits(re, im)
    _assert_fsum_bits(re[0])


def test_compensated_sum_is_the_same_for_shuffled_rows():
    rng = np.random.default_rng(11)
    re = np.concatenate([_wide(rng, (4, 5000), -100, 100), np.full((4, 3), 2.0 ** -53)], axis=1)
    want = compensated_sum(re)
    for _ in range(3):
        assert compensated_sum(rng.permuted(re, axis=1)).tobytes() == want.tobytes()
    _assert_fsum_bits(re)


@pytest.mark.parametrize("terms, error", [([1e308, 1e308], OverflowError),
                                          ([np.inf, -np.inf], ValueError),
                                          ([1.0, np.inf, 1.0, -np.inf], ValueError)])
def test_compensated_sum_raises_as_fsum_does(terms, error):
    with pytest.raises(error) as want:
        math.fsum(terms)
    with pytest.raises(error) as got:
        compensated_sum(np.array(terms))
    assert str(got.value) == str(want.value)
    with pytest.raises(error):
        compensated_sum(np.zeros((2, len(terms))), np.array([[0.0] * len(terms), terms]))


def test_compensated_sum_keeps_fsum_non_finite_sums():
    for terms in ([np.inf, 1.0], [-np.inf, -1e308], [np.nan, 1.0], [1.0, np.nan, np.inf]):
        _assert_fsum_bits(np.array(terms))
        ones = [1.0] * len(terms)
        _assert_fsum_bits(np.array([terms, ones]), np.array([ones, terms]))
