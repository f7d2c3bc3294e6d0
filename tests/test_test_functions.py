import numpy as np
import pytest

from lyubich_lab.errors import IncompatibleTable
from lyubich_lab.rational_map import builtin_map
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


def test_compose_with_map():
    cheb = builtin_map("chebyshev")
    f = tf.Z.compose_with(cheb)
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
    "composed": (BOUNDED.compose_with(builtin_map("chebyshev")), 1.0),
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
