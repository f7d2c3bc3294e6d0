import warnings

import numpy as np
import pytest

from lyubich_lab import _fiber, roots
from lyubich_lab.errors import RootFindingFailure
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.preimage_solver import iterated_preimages
from lyubich_lab.rational_map import RationalMap, fiber_plan
from lyubich_lab.roots import (aberth_roots, companion_roots, companion_rows, derivative,
                               horner, polish_root, trim)
from lyubich_lab.sphere import INFINITY


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


def test_companion_roots_is_the_one_row_companion_solve():
    zero_constant = [0, 2, -1j, 1, 0]
    quartic = np.random.default_rng(31).standard_normal((5, 2)) @ [1, 1j]
    for c in (zero_constant, quartic):
        expected = companion_rows(trim(c)[None])[0]
        np.testing.assert_array_equal(companion_roots(c), expected)
    with pytest.raises(RootFindingFailure):
        companion_roots([1, np.nan, 1])


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


@pytest.mark.parametrize("roots_", [
    pytest.param([np.exp(1j * (0.4 + 2 * np.pi * k / 3)) for k in range(3)], id="z^3-w"),
    pytest.param([-3.25, 0.125 + 4j, 0.6 - 0.7j], id="generic"),
])
def test_cubic_rows_give_the_prescribed_roots(roots_):
    h = _poly_from_roots(roots_)
    want = np.array(roots_)
    for scale in (1.0, 1e150, 1e-150):
        z, converged = roots.cubic_rows(scale * h[None, :])
        assert converged.all()
        # Each prescribed root has its own closed-form root.
        dist = _chordal(z[0][:, None], want[None, :])
        assert sorted(np.argmin(dist, axis=0).tolist()) == [0, 1, 2]
        assert dist.min(axis=0).max() <= AGREEMENT


@pytest.mark.parametrize("roots_,bound", [
    # Unscaled, the triple root takes K = 0 and comes out exact; scaled by
    # 1e150 it lands 5e-6 from 1, within eps^(1/3).
    pytest.param([1, 1, 1], 1e-5, id="(z-1)^3"),
    pytest.param([1, 1, -2], 1e-7, id="(z-1)^2(z+2)"),
])
def test_cubic_rows_near_multiple_roots_meet_the_backward_error_test(roots_, bound):
    h = _poly_from_roots(roots_)
    want = np.array(roots_, dtype=complex)
    for scale in (1.0, 1e150, 1e-150):
        z, converged = roots.cubic_rows(scale * h[None, :])
        assert converged.all()
        assert _backward_error_ok(scale * h, z[0])
        assert np.abs(z[0][:, None] - want[None, :]).min(axis=0).max() < bound


def test_a_cubic_row_that_cancels_falls_back_to_the_companion_matrix(monkeypatch):
    # Cardano's shift -B/3 cancels against the small root, so the closed
    # form fails the residual test at every scale.
    want = np.array([1, 1e6 * np.exp(1j), 1e-6 * np.exp(-2j)])
    h = _poly_from_roots(want)
    calls = []
    companion = roots.companion_rows

    def counting(h):
        calls.append(h.shape[0])
        return companion(h)

    monkeypatch.setattr(roots, "companion_rows", counting)
    for scale in (1.0, 1e150, 1e-150):
        _, converged = roots.cubic_rows(scale * h[None, :])
        assert not converged.any()
        calls.clear()
        z, stepped = roots.rows_roots(scale * h[None, :])
        assert calls == [1]
        assert not stepped.any()
        dist = _chordal(z[0][:, None], want[None, :])
        assert dist.min(axis=0).max() <= AGREEMENT


def test_conjugate_cubic_rows_give_conjugate_roots_to_the_bit():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
    z, converged = roots.cubic_rows(h)
    zc, converged_c = roots.cubic_rows(np.conj(h))
    np.testing.assert_array_equal(converged, converged_c)
    assert converged.mean() > 0.99
    # The cube roots of unity w and conj(w) trade places.
    assert zc.tobytes() == np.conj(z[:, [0, 2, 1]]).tobytes()

    # A real row with a complex pair: the pair is exactly conjugate and
    # the third root exactly real, so their order never rests on a last bit.
    real = rng.normal(size=(2000, 4)).astype(complex)
    z, converged = roots.cubic_rows(real)
    paired = converged & (np.abs(z.imag).max(axis=1) > 1e-8)
    assert paired.sum() > 1000
    assert z[paired, 1].tobytes() == np.conj(z[paired, 2]).tobytes()
    assert not z[paired, 0].imag.any()


def test_cubic_block_keeps_the_bits_of_one_row_solves():
    # 16384 rows: arrays above numpy's 256 KiB elision size.
    rng = np.random.default_rng(6)
    h = rng.normal(size=(16384, 4)) + 1j * rng.normal(size=(16384, 4))
    h[::5, 2] = 0
    h[::7] = h[::7].real
    h[::11] *= 1e120
    block, stepped = roots.rows_roots(h)
    singles = [roots.rows_roots(h[r:r + 1]) for r in range(h.shape[0])]
    assert block.tobytes() == np.concatenate([z for z, _ in singles]).tobytes()
    np.testing.assert_array_equal(stepped, np.concatenate([s for _, s in singles]))


def test_cubic_rows_that_fail_the_residual_test_fall_back(monkeypatch):
    # The fiber of (z - 4)^3 + 64 over 64 is (z - 4)^3: scaled by its
    # largest coefficient it is exact, and its closed form (K = 0) is the
    # exact root 4.  The fibers over the other targets are not exact.
    rmap = RationalMap([0, 48, -12, 1], [1], name="(z-4)^3+64")
    values = np.array([0.3 + 0.2j, 64.0, -0.5 + 2j])
    finite = np.zeros(3, dtype=bool)

    def solve():
        return _fiber.solve_fibers(fiber_plan(rmap), values, finite)

    want = solve()
    calls, polished = [], []
    companion, polish = roots.companion_rows, roots.polish_rows

    def counting(h):
        calls.append(h.shape[0])
        return companion(h)

    def counting_polish(h, z):
        polished.append(h.shape[0])
        return polish(h, z)

    monkeypatch.setattr(roots, "companion_rows", counting)
    monkeypatch.setattr(roots, "polish_rows", counting_polish)
    # With no tolerance only exact roots pass.
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 0.0)
    h = rmap._num_pad - values[:, None] * rmap._den_pad
    _, converged = roots.cubic_rows(h)
    np.testing.assert_array_equal(converged, [False, True, False])
    got = solve()
    assert calls == [2]
    assert polished == [2]
    assert np.max(_chordal(got[0], want[0])) <= AGREEMENT
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)
    # The triple root keeps its bits.
    for a, b in zip(got[:3], want[:3]):
        assert a[want[3][1]:want[3][2]].tobytes() == b[want[3][1]:want[3][2]].tobytes()


def test_a_cubic_row_with_a_nan_coefficient_raises():
    h = np.array([[0.3, 0, 0, 1], [np.nan, 0, 0, 1], [1, 2j, 0, 1]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(RootFindingFailure):
        roots.rows_roots(h)


def test_cubic_rows_raise_no_warning():
    # Double and triple roots (a zero derivative, and 0/0 beside K = 0),
    # a constant term that underflows when the row is scaled, and a
    # generic row.
    h = np.array([_poly_from_roots([1, 1, 1]), _poly_from_roots([1, 1, -2]),
                  _poly_from_roots([0.3j, 0.3j, 2]), [1e-150, 0, 0, 1e150],
                  [3, 0.5 - 1j, 2j, 1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots.cubic_rows(h)
        roots.rows_roots(h)
        for scale in (1e300, 1e200):
            z = aberth_roots([1 / scale, 0, 0, scale])
            # The roots have modulus scale^(-2/3).
            assert np.all(np.abs(z) <= 2 * scale ** (-2 / 3))


@pytest.mark.parametrize("rmap,root,depth", [
    pytest.param(RationalMap([0, -3, 0, 1], [1]), -2, 9, id="z^3-3z"),
    pytest.param(RationalMap([1, 0, 0, 2], [0, 0, 3]), INFINITY, 7, id="newton-inf"),
    pytest.param(RationalMap([0.3 + 0.5j, 0, 0, 1], [1]), None, 8, id="z^3+0.3+0.5i"),
])
def test_cubic_tree_atoms_are_backward_stable(rmap, root, depth):
    # |h(z)| <= 4 eps sum |h_k| |z|^k on every simple finite atom over a
    # finite parent; the worst on these trees is 1.34 eps.
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    eps = np.finfo(float).eps
    checked = 0
    for k in range(1, depth + 1):
        prev, lvl = tree.level(k - 1), tree.level(k)
        parent = lvl.parent
        simple = (lvl.cum == prev.cum[parent]) & ~lvl.inf_mask & ~prev.inf_mask[parent]
        w = prev.points[parent[simple]]
        z = lvl.points[simple][None, :]
        h = (rmap._num_pad - w[:, None] * rmap._den_pad).T
        assert np.all(np.abs(horner(h, z)) <= 4 * eps * horner(np.abs(h), np.abs(z)))
        checked += z.size
    assert checked > 0.9 * tree.level(depth).size


def test_rows_roots_takes_the_closed_forms_for_degrees_2_and_3(monkeypatch):
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
    assert seen == [1, 4]


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


# Real rows: the float64 closed forms, the complex closed forms on the same
# rows, and the pairing of the other engines' real rows.


def _assert_conjugate_closed(z):
    """Each row's roots: real ones with imaginary part +0, the others in
    exact conjugate pairs."""
    def bits(x):
        return sorted(map(tuple, x.view(np.int64).reshape(-1, 2).tolist()))

    for row in z:
        real = row.imag == 0
        assert not np.signbit(row.imag[real]).any()
        assert bits(row[~real]) == bits(np.conj(row[~real]))


def _real_rows(rng, rows, n):
    h = rng.normal(size=(rows, n + 1))
    h[::5, 1] = 0                                      # b = 0
    h[1::7] = _poly_from_roots([0.5] * n).real             # an n-fold root
    h[::11] *= 1e150
    h[::13] *= 1e-150
    return h


def test_real_quadratic_rows_keep_the_bits_of_complex_rows():
    # A real row has the same roots in a float block as marked real in a
    # complex one, whatever the sign of its zero imaginary parts; the
    # complex rows of that block keep the bits of the unmarked route.
    rng = np.random.default_rng(21)
    h = _real_rows(rng, 4000, 2)
    z, converged = roots.quadratic_rows(h)
    _assert_conjugate_closed(z[converged])
    assert (z.imag != 0).any(axis=1).mean() > 0.2
    for zero in (0.0, -0.0):
        hc = h.astype(complex)
        hc.imag = zero
        zc, converged_c = roots.quadratic_rows(hc, np.ones(h.shape[0], dtype=bool))
        assert zc.tobytes() == z.tobytes()
        np.testing.assert_array_equal(converged_c, converged)

    mixed = rng.normal(size=(4000, 3)) + 1j * rng.normal(size=(4000, 3))
    real = rng.random(4000) < 0.3
    mixed[real] = h[real]
    zm, converged_m = roots.quadratic_rows(mixed, real)
    want, want_converged = roots.quadratic_rows(mixed)
    assert zm[real].tobytes() == z[real].tobytes()
    assert zm[~real].tobytes() == want[~real].tobytes()
    np.testing.assert_array_equal(converged_m[real], converged[real])
    np.testing.assert_array_equal(converged_m[~real], want_converged[~real])


def test_real_cubic_rows_of_a_complex_block_take_the_float_route():
    rng = np.random.default_rng(22)
    h = _real_rows(rng, 3000, 3)
    z, stepped = roots.rows_roots(h)
    _assert_conjugate_closed(z[stepped])
    assert not z.imag[stepped].any(axis=1).all()
    mixed = rng.normal(size=(3000, 4)) + 1j * rng.normal(size=(3000, 4))
    real = rng.random(3000) < 0.3
    mixed[real] = h[real]
    zm, stepped_m = roots.rows_roots(mixed, real)
    want, want_stepped = roots.rows_roots(mixed)
    assert zm[real].tobytes() == z[real].tobytes()
    assert zm[~real].tobytes() == want[~real].tobytes()
    np.testing.assert_array_equal(stepped_m, np.where(real, stepped, want_stepped))


@pytest.mark.parametrize("roots_", [
    pytest.param([1, 1], id="(z-1)^2"),
    pytest.param([0.3, 0.3 + 1e-8], id="near-double"),
    pytest.param([0.25 + 2j, 0.25 - 2j], id="pair"),
    pytest.param([1j, -1j], id="z^2+1"),
    pytest.param([1, 1, 1], id="(z-1)^3"),
    pytest.param([1, 1, -2], id="(z-1)^2(z+2)"),
    pytest.param([-3.25, 0.125 + 4j, 0.125 - 4j], id="real-and-pair"),
    pytest.param([-1.5, 0.2, 3.0], id="three-real"),
    # Cardano's -B/3 cancels against the small root: both routes fall back.
    pytest.param([1, 1e6, 1e-6], id="cancelling"),
])
def test_real_rows_fall_back_as_the_complex_closed_forms_do(roots_):
    h = _poly_from_roots(roots_).real
    want = np.array(roots_, dtype=complex)
    closed_form = roots.quadratic_rows if h.size == 3 else roots.cubic_rows
    for scale in (1.0, 1e150, 1e-150):
        rows = scale * h[None, :]
        _, converged = closed_form(rows)
        _, converged_c = closed_form(rows.astype(complex))
        np.testing.assert_array_equal(converged, converged_c)
        z, stepped = roots.rows_roots(rows)
        if not stepped.all():
            z = roots.pair_rows(roots.polish_rows(rows, z))
        _assert_conjugate_closed(z)
        assert _backward_error_ok(rows[0], z[0])
        # Each prescribed root has a root of the row within eps^(1/3).
        assert np.abs(z[0][:, None] - want[None, :]).min(axis=0).max() < 1e-5 * np.abs(want).max()


def test_pair_rows_closes_real_rows_under_conjugation():
    z = np.array([
        [1 + 1e-17j, 2 - 3j, 2 + 3.0000000000000004j],    # a real root and a pair
        [0.5 - 1e-18j, -1 + 0j, 4 + 0j],                  # three real roots
        [1 + 1e-3j, 1 + 2e-3j, 5 + 0j],                   # two that do not pair off
    ])
    got = roots.pair_rows(z)
    assert got[0].tolist() == [1, np.conj(2 + 3.0000000000000004j), 2 + 3.0000000000000004j]
    assert not np.signbit(got[0].imag[0]) and not np.signbit(got[1].imag).any()
    assert got[1].tolist() == [0.5, -1, 4]
    assert got[2].tobytes() == z[2].tobytes()
