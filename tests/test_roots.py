import warnings

import numpy as np
import pytest

from lyubich_lab import roots
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


# Bound on the chordal distance between a closed-form root and the root
# it was built from.
AGREEMENT = 1e-12


def _chordal(z, w):
    return 2 * np.abs(z - w) / (np.hypot(1, np.abs(z)) * np.hypot(1, np.abs(w)))


def _matched(got, want):
    """The chordal distance from each root in ``want`` to the root of
    ``got`` paired with it, trying both orders."""
    straight = _chordal(got, want)
    crossed = _chordal(got[::-1], want)
    return straight if straight.max() <= crossed.max() else crossed


def _backward_error_ok(h, z):
    c = h / np.abs(h).max()
    value = np.abs(horner(c, z))
    scale = horner(np.abs(c), np.abs(z))
    return bool(np.all(value <= roots.RESIDUAL_TOL * np.maximum(scale, 1e-300)))


@pytest.mark.parametrize("pair", [
    pytest.param((0.7 + 0.3j, -0.7 - 0.3j), id="b=0"),
    pytest.param((2j, -0.5j), id="imaginary"),
    # The textbook formula takes the small root from -b + d, which cancels
    # here to a chordal error near 1e-10.
    pytest.param((1e6 * np.exp(1j), 1e-6 * np.exp(-2j)), id="ratio-1e12"),
    pytest.param((-3.25, 0.125 + 4j), id="generic"),
])
def test_quadratic_rows_give_the_prescribed_roots(pair):
    h = _poly_from_roots(pair)
    want = np.array(pair)
    for scale in (1.0, 1e150, 1e-150):
        z, converged = roots.quadratic_rows(scale * h[None, :])
        assert converged.all()
        assert _matched(z[0], want).max() <= AGREEMENT


def test_quadratic_rows_near_double_root_meet_the_backward_error_test():
    # Roots 1e-8 apart: forward error near 1e-8 is all the data allow.
    for base in (1.0, 0.3 - 2j):
        h = _poly_from_roots([base, base + 1e-8])
        for scale in (1.0, 1e150, 1e-150):
            z, converged = roots.quadratic_rows(scale * h[None, :])
            assert converged.all()
            assert _backward_error_ok(scale * h, z[0])
            assert np.max(np.abs(z[0] - base)) < 1e-7


def test_quadratic_block_keeps_the_bits_of_one_row_solves():
    # 16384 rows: arrays above numpy's 256 KiB elision size.
    rng = np.random.default_rng(5)
    h = rng.normal(size=(16384, 3)) + 1j * rng.normal(size=(16384, 3))
    h[::7, 1] = 0
    h[::11] *= 1e120
    block, stepped = roots.rows_roots(h)
    singles = [roots.rows_roots(h[r:r + 1]) for r in range(h.shape[0])]
    assert block.tobytes() == np.concatenate([z for z, _ in singles]).tobytes()
    np.testing.assert_array_equal(stepped, np.concatenate([s for _, s in singles]))


def test_rows_roots_takes_the_closed_form_for_quadratics_only(monkeypatch):
    seen = []
    aberth = roots.aberth_rows

    def counting(h):
        seen.append(h.shape[1] - 1)
        return aberth(h)

    monkeypatch.setattr(roots, "aberth_rows", counting)
    for degree in (1, 2, 3, 4):
        h = _poly_from_roots(np.arange(1, degree + 1) * (0.5 + 0.25j))[None, :]
        got = np.sort_complex(roots.rows_roots(h)[0][0])
        np.testing.assert_allclose(got, np.sort_complex(np.arange(1, degree + 1) * (0.5 + 0.25j)),
                                   atol=1e-12)
    assert seen == [1, 3, 4]


def test_the_newton_step_raises_no_warning():
    # Double roots: the derivative vanishes at the closed form, and the
    # roots keep it.  Scaled rows and a generic one take their step.
    h = np.array([[1, -2, 1], _poly_from_roots([0.3j, 0.3j]), [1e-150, 0, 1e150],
                  [3, 0.5 - 1j, 2j]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, converged = roots.quadratic_rows(h)
        roots.rows_roots(h)
    assert converged.all()
    assert z[0].tolist() == [1, 1]


@pytest.mark.parametrize("scale", [1e300, 1e200])
def test_an_underflowing_constant_term_raises_no_warning(scale):
    # Scaled by max|c_k| the constant term underflows to 0, so the closed
    # form divides 0 by 0; the row fails the residual test and the
    # companion matrix answers 0, 0.  The roots are +-i/scale, within
    # chordal distance 2/scale of 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = aberth_roots([1 / scale, 0, scale])
    assert z.size == 2
    assert np.all(np.abs(z) <= 2 / scale)
