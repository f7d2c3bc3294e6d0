import numpy as np
import pytest

from lyubich_lab.roots import (aberth_roots, companion_roots, derivative, horner,
                               polish_root, taylor_shift, trim)


def _poly_from_roots(zeros):
    c = np.array([1.0 + 0j])
    for z in zeros:
        c = np.convolve(c, np.array([-z, 1.0]))
    return c


def test_trim_drops_tiny_leading():
    c = trim([1.0, 2.0, 1e-15], rel_tol=1e-12)
    assert c.size == 2


def test_polyval_horner():
    assert horner(np.array([1, 2, 3]), 2.0) == 1 + 4 + 12
    z = np.array([0, 1j, -1], dtype=complex)
    np.testing.assert_allclose(horner(np.array([0, 0, 1]), z), z * z)
    # A root-major stack evaluates column r at z[:, r].
    stack = np.array([[1, 0], [2, 0], [3, 1]])
    assert horner(stack, np.array([[2.0, 3.0]])).tolist() == [[17, 9]]


def test_derivative():
    np.testing.assert_allclose(derivative([5, 3, 2, 1]), [3, 4, 3])
    assert derivative([7]).tolist() == [0]
    stack = np.array([[5, 1], [3, 1], [2, 1], [1, 1]])
    np.testing.assert_array_equal(derivative(stack), [[3, 1], [4, 2], [3, 3]])


def test_taylor_shift_quadratic():
    np.testing.assert_allclose(taylor_shift([0, 0, 1], 1.0), [1, 2, 1])
    np.testing.assert_allclose(taylor_shift([-2, 0, 1], 3.0), [7, 6, 1])
    np.testing.assert_allclose(taylor_shift([5], 2.0), [5])


def test_taylor_shift_matches_eval():
    rng = np.random.default_rng(3)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    z0 = 0.7 - 0.4j
    shifted = taylor_shift(c, z0)
    for t in (0.1, -0.3 + 0.2j, 1.5j):
        assert horner(shifted, t) == pytest.approx(horner(c, z0 + t), rel=1e-12)


def test_aberth_simple_cubic():
    got = np.sort_complex(aberth_roots([-6, 11, -6, 1]))
    np.testing.assert_allclose(got, [1, 2, 3], atol=1e-10)


def test_aberth_random_products():
    rng = np.random.default_rng(11)
    for trial in range(20):
        degree = int(rng.integers(2, 9))
        true = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        got = np.sort_complex(aberth_roots(_poly_from_roots(true)))
        np.testing.assert_allclose(got, np.sort_complex(true), atol=1e-8)


def test_aberth_double_root_clusters_near_truth():
    got = aberth_roots([1, -2, 1])        # (z-1)^2
    assert got.size == 2
    assert np.max(np.abs(got - 1.0)) < 1e-5


def test_aberth_exact_zeros_at_origin():
    got = np.sort_complex(aberth_roots([0, 0, 0, 1]))
    np.testing.assert_allclose(got, [0, 0, 0], atol=0)


def test_aberth_scale_invariance():
    c = _poly_from_roots([1.5, -2j, 0.25 + 0.25j])
    a = np.sort_complex(aberth_roots(c))
    b = np.sort_complex(aberth_roots(1e6 * c))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_companion_matches_aberth():
    c = _poly_from_roots([2, -1, 1j, -1j])
    a = aberth_roots(c)
    b = companion_roots(c)
    # pair by nearest match; lexicographic sorting is unstable at ulp level
    for root in a:
        assert np.min(np.abs(b - root)) < 1e-8


def test_polish_recovers_simple_root():
    c = _poly_from_roots([1.25, -0.5, 3j])
    z = polish_root(c, 1.25 + 1e-4, 1)
    assert abs(z - 1.25) < 1e-12


def test_polish_multiple_root():
    # double root: corrected Newton lands well inside the noise floor
    c = _poly_from_roots([1.0, 1.0])
    z = polish_root(c, 1.0 + 1e-7, 2)
    assert abs(z - 1.0) < 1e-9
    # triple root: evaluation noise limits accuracy to about eps**(1/3)
    c = _poly_from_roots([2.0, 2.0, 2.0])
    z = polish_root(c, 2.0 + 1e-5, 3)
    assert abs(z - 2.0) < 1e-4
