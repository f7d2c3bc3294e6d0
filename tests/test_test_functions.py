import numpy as np
import pytest

from lyubich_lab.rational_map import builtin_map, evaluate_array
from lyubich_lab.sphere import INFINITY
from lyubich_lab import test_functions as tf


def test_polynomial_evaluation():
    f = tf.TestFunction.polynomial({(2, 0): 1.0, (0, 0): -2.0}, "z^2 - 2")
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


def test_a_polynomial_is_a_one_row_batch():
    f = tf.TestFunction.polynomial({(1, 0): 2.0, (0, 0): 0.0, (0, 1): -0j, (2, 1): 1j}, "f")
    assert f.batch.keys == ((1, 0), (2, 1)) and f.batch.coeffs.tolist() == [[2, 1j]]
    # The cross terms of (z + zb)(z - zb) cancel, and the product drops them.
    plus = tf.TestFunction.polynomial({(1, 0): 1.0, (0, 1): 1.0}, "z + zb")
    minus = tf.TestFunction.polynomial({(1, 0): 1.0, (0, 1): -1.0}, "z - zb")
    assert (plus * minus).batch.keys == ((2, 0), (0, 2))
    assert tf.ABS.batch is None and (tf.ABS * f).batch is None
    points = np.array([0.3 - 0.2j, 1e200, -1e200j, 1e155 + 1e155j, 0.0, -0.0])
    with np.errstate(all="ignore"):
        for g in (f, plus * minus, f.conj(), tf.RE4):
            assert g.evaluate(points).tobytes() == g.batch.evaluate(points)[0].tobytes()


def test_rows_conjugate_and_multiply_as_their_batch():
    rng = np.random.default_rng(17)
    xi, eta = tf.random_polynomials(rng, 6, 2), tf.random_polynomials(rng, 6, 3)
    conj, product = xi.conj(), xi * eta
    for i in range(6):
        for row, batch in ((xi[i].conj(), conj), (xi[i] * eta[i], product)):
            assert row.batch.keys == batch.keys
            assert row.batch.coeffs.tobytes() == batch.coeffs[i:i + 1].tobytes()


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
POLY = tf.random_polynomial(np.random.default_rng(12), 3)

# name: (function, its value at infinity, or None where it is undefined)
ONE_PATH = {
    "poly": (POLY, None),
    "constant": (tf.ONE, 1.0),
    "callable": (tf.abs_distance(0.7), None),
    "bounded": (BOUNDED, 1.0),
    "product": (tf.ABS * POLY, None),
    "bounded product": (BOUNDED * BOUNDED, 1.0),
    "conj": (BOUNDED.conj(), 1.0),
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


def _coeffs(f):
    """A polynomial's coefficient table ``{(j, k): c}``, in key order."""
    return dict(zip(f.batch.keys, f.batch.coeffs[0].tolist()))


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
        single = _coeffs(tf.random_polynomial(single_rng, degree))
        scalar = _scalar_draw(scalar_rng, degree)
        row = _coeffs(batch[i])
        assert list(row) == list(single) == list(scalar) == list(batch.keys)
        assert all(row[key] == single[key] == scalar[key] for key in scalar)
    state = batch_rng.bit_generator.state
    assert state == single_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_random_trials_interleave_as_successive_draws():
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    xi, eta, a = tf.random_trials(rng, 5, (2, 2, 1))
    for i in range(5):
        for batch, degree in ((xi, 2), (eta, 2), (a, 1)):
            assert _coeffs(batch[i]) == _scalar_draw(ref, degree)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_product_coefficients_round_as_python_complex():
    rng = np.random.default_rng(13)
    xi, eta = tf.random_polynomials(rng, 30, 2), tf.random_polynomials(rng, 30, 2)
    product = xi.conj() * eta
    for i in range(30):
        expected = {}
        for (j1, k1), c1 in _coeffs(xi[i]).items():
            for (j2, k2), c2 in _coeffs(eta[i]).items():
                key = (k1 + j2, j1 + k2)
                expected[key] = expected.get(key, 0j) + c1.conjugate() * c2
        assert _coeffs(product[i]) == expected
        assert list(_coeffs(product[i])) == list(expected)
        assert _coeffs(xi[i].conj() * eta[i]) == expected


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


def _reference_evaluate(batch, points, inf_mask=None):
    """The per-term evaluator: every term as ``(c * z**j) * conj(z)**k``,
    ``z**0`` included, each in a fresh array."""
    table = tf.as_power_table(points, inf_mask)
    z = table.points
    out = np.zeros((len(batch),) + z.shape, dtype=complex)
    column = (-1,) + (1,) * z.ndim
    for (j, k), c in zip(batch.keys, batch.coeffs.T):
        term = c.reshape(column) * z**j
        term *= np.conj(z)**k
        out += term
    if table.inf_mask.any():
        if any(key != (0, 0) for key in batch.keys):
            raise ValueError(f"polynomial {batch.name} is not defined at infinity")
        out[:, table.inf_mask] = batch.coeffs[:, :1] if batch.keys else 0j
    return out


def _batches(rng, rows, degree):
    """A random batch of the degree, its conjugate and a product batch
    ``xi.conj() * eta``, as the covariance check forms it."""
    xi, eta = tf.random_polynomials(rng, rows, degree), tf.random_polynomials(rng, rows, degree)
    return xi, xi.conj(), xi.conj() * eta


# (rows, point shape): 1 to 100 rows on 1-D and 2-D point arrays of 1 to
# 65536 points; from (3, 16384) on a row block passes numpy's 256 KiB
# elision size.
EVALUATION_CASES = [
    (1, (1,)), (7, (1,)), (100, (1, 1)), (1, (300,)), (7, (20, 15)), (31, (512,)),
    (100, (512,)), (31, (2, 256)), (7, (4096,)), (100, (4096,)), (3, (16384,)),
    (31, (128, 128)), (1, (65536,)), (7, (65536,)), (1, (256, 256)),
]


@pytest.mark.parametrize("rows,shape", EVALUATION_CASES)
def test_a_batch_keeps_the_bits_of_the_per_term_evaluator(rows, shape):
    rng = np.random.default_rng(rows * 65537 + int(np.prod(shape)))
    size = int(np.prod(shape))
    points = 1.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    points[:3] = [0.0, -0.0, complex(-0.0, -0.0)][:size]
    points = points.reshape(shape)
    for degree in range(5):
        for batch in _batches(rng, rows, degree):
            expected = _reference_evaluate(batch, tf.PowerTable(points))
            assert batch.evaluate(tf.PowerTable(points)).tobytes() == expected.tobytes()
            assert batch.evaluate(points).tobytes() == expected.tobytes()


def test_signed_zeros_keep_the_bits_of_the_per_term_evaluator():
    parts = [0.0, -0.0, 1.5, -2.25]
    coeffs = np.array([complex(a, b) for a in parts for b in parts])
    points = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1.0,
                       1j, -1j, 0.5 - 0.25j])
    for degree in range(4):
        keys = tf._term_keys(degree)
        # every coefficient on every term, one row each
        table = np.resize(coeffs, (len(coeffs), len(keys)))
        for offset in range(len(keys)):
            batch = tf.PolynomialBatch(keys, np.roll(table, offset, axis=0))
            for b in (batch, batch.conj(), batch.conj() * batch):
                expected = _reference_evaluate(b, points)
                assert b.evaluate(points).tobytes() == expected.tobytes()


def test_constant_batches_read_no_power_on_tables_holding_infinity():
    points = np.array([0.5, np.inf, complex(np.inf, np.nan), np.nan, -0.0, 1e200])
    consts = tf.PolynomialBatch([(0, 0)], [[2.0], [1j], [complex(-0.0, -0.0)], [0j]])
    with np.errstate(all="ignore"):
        for inf_mask in (None, [False, True, True, False, False, False]):
            table = tf.PowerTable(points, inf_mask)
            expected = _reference_evaluate(consts, points, inf_mask)
            assert consts.evaluate(table).tobytes() == expected.tobytes()
            assert not table._powers
        empty = tf.PolynomialBatch([], np.zeros((2, 0)))
        assert empty.evaluate(points).tobytes() == _reference_evaluate(empty, points).tobytes()


def test_an_overflowing_term_is_not_multiplied_by_one():
    """At |z| = 1e200, z**2 is inf + 0j.  The term c * z**2 reads
    inf + NaN*i, as its conjugate c * conj(z)**2 always did; the per-term
    evaluator's product of it with 1 + 0j read NaN + NaN*i.  Every value
    finite in one reads the same bits in the other."""
    points = np.array([1e200, -1e200, 1e200j, 0.75 - 0.5j])
    with np.errstate(all="ignore"):
        for keys in ([(2, 0)], [(0, 0), (1, 0), (2, 0)]):
            batch = tf.PolynomialBatch(keys, [[1.0] * len(keys)])
            value, expected = batch.evaluate(points)[0], _reference_evaluate(batch, points)[0]
            assert np.isinf(value[:3].real).all() and np.isnan(value[:3].imag).all()
            assert np.isnan(expected[:3].real).all() and np.isnan(expected[:3].imag).all()
            assert value[3:].tobytes() == expected[3:].tobytes()
        conj = tf.PolynomialBatch([(0, 2)], [[1.0]])
        assert (conj.evaluate(points).tobytes()
                == _reference_evaluate(conj, points).tobytes()
                == tf.PolynomialBatch([(2, 0)], [[1.0]]).evaluate(np.conj(points)).tobytes())


def test_a_batch_is_defined_at_infinity_only_when_constant():
    inf = np.array([False, True])
    consts = tf.PolynomialBatch([(0, 0)], [[2.0], [1j]])
    np.testing.assert_array_equal(consts.evaluate([0.5, 0.0], inf), [[2, 2], [1j, 1j]])
    with pytest.raises(ValueError):
        tf.random_polynomials(np.random.default_rng(0), 2, 1).evaluate([0.5, 0.0], inf)
