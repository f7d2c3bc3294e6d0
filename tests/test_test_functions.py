import numpy as np
import pytest

from lyubich_lab.errors import IncompatibleTable
from lyubich_lab.rational_map import builtin_map, evaluate_array
from lyubich_lab.sphere import INFINITY
from lyubich_lab import test_functions as tf


def test_polynomial_evaluation():
    f = tf.TestFunction.polynomial({(2, 0): 1.0, (0, 0): -2.0})   # z^2 - 2
    assert f(3) == 7
    pts = np.array([1j, 2.0], dtype=complex)
    np.testing.assert_allclose(f.evaluate(pts), [-3, 2])


def test_conjugate_and_product():
    f = tf.Z * tf.ZBAR
    assert f(2 + 1j) == pytest.approx(5.0)
    g = tf.Z.conj()
    assert g(2 + 1j) == pytest.approx(2 - 1j)
    h = tf.RE2
    assert h(3 + 4j) == pytest.approx(9.0)


def test_addition_and_scaling():
    f = 2.0 * tf.Z + 1.0
    assert f(1j) == pytest.approx(1 + 2j)
    g = tf.Z - tf.Z
    assert g(0.7) == 0


def test_poly_at_infinity():
    assert tf.ONE(INFINITY) == 1.0
    with pytest.raises(ValueError):
        tf.Z(INFINITY)


def _composed(f, rmap):
    """The function z -> f(R(z)), exact, as an array closure."""
    return tf.TestFunction.from_callable(
        lambda p, i: f.evaluate(*evaluate_array(rmap, p, i)), f"({f.name}) o R")


def test_compose_with_map():
    cheb = builtin_map("chebyshev")
    f = _composed(tf.Z, cheb)
    assert f(3) == pytest.approx(7.0)


def test_table_binding():
    pts = np.array([1.0, 2.0], dtype=complex)
    inf = np.zeros(2, dtype=bool)
    f = tf.TestFunction.from_table(pts, inf, np.array([10.0, 20.0], dtype=complex))
    np.testing.assert_allclose(f.evaluate(pts, inf), [10, 20])
    assert f(2.0) == 20
    with pytest.raises(IncompatibleTable):
        f.evaluate(np.array([1.0, 3.0], dtype=complex), inf)
    with pytest.raises(IncompatibleTable):
        f(5.0)


def test_random_polynomial_deterministic():
    a = tf.random_polynomial(np.random.default_rng(5), 2)
    b = tf.random_polynomial(np.random.default_rng(5), 2)
    z = 0.3 + 0.9j
    assert a(z) == b(z)
    # damped coefficients keep values moderate on the working disk
    pts = 2.0 * np.exp(2j * np.pi * np.linspace(0, 1, 50))
    assert np.max(np.abs(a.evaluate(pts))) < 30


def _bounded(z, inf_mask):
    r2 = np.abs(z) ** 2
    return np.where(inf_mask, 1.0, (r2 + 0.3 * z + 1j) / (1 + r2))


BOUNDED = tf.TestFunction.from_callable(_bounded, "bounded")
POINTS = np.array([0.3 + 0.1j, -1.2, 2j, 0.0, 5.0 - 1j, -0.7 - 0.4j])
TABLE = tf.TestFunction.from_table(POINTS, np.zeros(POINTS.size, dtype=bool),
                                   np.arange(POINTS.size) - 1j)
POLY = tf.random_polynomial(np.random.default_rng(12), 3)

# name: (function, its value at infinity, or None where it is undefined)
ONE_PATH = {
    "poly": (POLY, None),
    "constant": (tf.ONE, 1.0),
    "callable": (tf.abs_distance(0.7), None),
    "bounded": (BOUNDED, 1.0),
    "table": (TABLE, None),
    "sum": (tf.ABS + POLY, None),
    "bounded sum": (BOUNDED + tf.ONE, 2.0),
    "product": (tf.ABS * POLY, None),
    "bounded product": (BOUNDED * BOUNDED, 1.0),
    "conj": (BOUNDED.conj(), 1.0),
    "scaled": ((0.5 - 2j) * BOUNDED, 0.5 - 2j),
    "scaled table": (3.0 * TABLE, None),
    "composed": (_composed(BOUNDED, builtin_map("chebyshev")), 1.0),
}


@pytest.mark.parametrize("name", ONE_PATH)
def test_a_point_evaluates_as_a_one_point_array(name):
    f, at_infinity = ONE_PATH[name]
    values = f.evaluate(POINTS)
    for z, value in zip(POINTS, values):
        assert f(z) == f.evaluate([z])[0]
        assert abs(f(z) - value) <= 1e-15 * max(1.0, abs(value))
    if at_infinity is None:
        with pytest.raises(ValueError):
            f(INFINITY)
    else:
        assert f(INFINITY) == at_infinity
        assert f.evaluate([0.3, 0.0], [False, True])[1] == at_infinity


def _scalar_draw(rng, max_degree, decay=3.0):
    """The draw of one random polynomial as it was made one scalar at a time."""
    coeffs = {}
    for j in range(max_degree + 1):
        for k in range(max_degree + 1 - j):
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[(j, k)] = c * decay ** (-(j + k))
    return coeffs


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_random_polynomials_are_successive_draws(degree):
    batch_rng, single_rng, scalar_rng = (np.random.default_rng(21) for _ in range(3))
    batch = tf.random_polynomials(batch_rng, 40, degree)
    for i in range(40):
        single = tf.random_polynomial(single_rng, degree)._coeffs
        scalar = _scalar_draw(scalar_rng, degree)
        row = batch[i]._coeffs
        assert list(row) == list(single) == list(scalar) == list(batch.keys)
        assert all(row[key] == single[key] == scalar[key] for key in scalar)
    state = batch_rng.bit_generator.state
    assert state == single_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_random_trials_interleave_as_successive_draws():
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    xi, eta, a = tf.random_trials(rng, 5, (2, 2, 1))
    for i in range(5):
        for batch, degree in ((xi, 2), (eta, 2), (a, 1)):
            assert batch[i]._coeffs == _scalar_draw(ref, degree)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_product_coefficients_round_as_python_complex():
    rng = np.random.default_rng(13)
    xi, eta = tf.random_polynomials(rng, 30, 2), tf.random_polynomials(rng, 30, 2)
    product = xi.conj() * eta
    for i in range(30):
        expected = {}
        for (j1, k1), c1 in xi[i]._coeffs.items():
            for (j2, k2), c2 in eta[i]._coeffs.items():
                key = (k1 + j2, j1 + k2)
                expected[key] = expected.get(key, 0j) + c1.conjugate() * c2
        assert product[i]._coeffs == expected
        assert list(product[i]._coeffs) == list(expected)
        assert (xi[i].conj() * eta[i])._coeffs == expected


def test_a_batch_evaluates_row_by_row_on_a_power_table():
    points = np.exp(1j * np.linspace(0, 6, 300)) * np.linspace(0.2, 2, 300)
    table = tf.PowerTable(points)
    batch = tf.random_polynomials(np.random.default_rng(4), 7, 3)
    values = batch.evaluate(table)
    assert values.shape == (7, 300)
    for i in range(7):
        assert batch[i].evaluate(points).tobytes() == values[i].tobytes()
        assert batch[i].evaluate(table).tobytes() == values[i].tobytes()
    # the powers are numpy's, computed once and shared
    assert table.power(3).tobytes() == (points**3).tobytes()
    assert table.power(2, conjugate=True).tobytes() == (np.conj(points)**2).tobytes()
    assert table.power(3) is table.power(3)
    assert not table.power(3).flags.writeable
    # z**0 is filled in as numpy computes it: 1 everywhere, NaN and inf too
    odd = np.append(points, [np.nan, np.inf, complex(np.nan, 1), complex(-np.inf, np.inf), 0])
    with np.errstate(all="ignore"):
        for conjugate in (False, True):
            base = np.conj(odd) if conjugate else odd
            zeroth = tf.PowerTable(odd).power(0, conjugate)
            assert zeroth.tobytes() == (base**0).tobytes()


def test_a_batch_is_defined_at_infinity_only_when_constant():
    inf = np.array([False, True])
    consts = tf.PolynomialBatch([(0, 0)], [[2.0], [1j]])
    np.testing.assert_array_equal(consts.evaluate([0.5, 0.0], inf), [[2, 2], [1j, 1j]])
    with pytest.raises(ValueError):
        tf.random_polynomials(np.random.default_rng(0), 2, 1).evaluate([0.5, 0.0], inf)


def test_table_lookups_sort_the_atoms_once(monkeypatch):
    points = np.random.default_rng(9).standard_normal(500) + 0j
    table = tf.TestFunction.from_table(points, np.zeros(500, dtype=bool), 2 * points)
    sorts = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        sorts.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    query = points[[7, 3, 499, 3]]
    first = table.evaluate(query)
    second = table.evaluate(query[::-1])
    assert len(sorts) == 1
    np.testing.assert_array_equal(first, 2 * query)
    np.testing.assert_array_equal(second, first[::-1])
    with pytest.raises(IncompatibleTable):
        table(0.123)
    assert len(sorts) == 1
