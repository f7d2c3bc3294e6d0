"""The fiber engine behind every fiber solve.

Every fiber, of a tree level or of a single point, is solved by
``_fiber.solve_fibers``.  The reference here is independent of it: the
eigenvalues of each row's companion matrix, stacked per degree and
Newton-polished in this file, with the critical-point rule for multiple
roots written out again.  These checks pin the agreement between the two,
the rows past the iteration cap or failing the residual test, and that
splitting the targets into blocks never changes an answer.  A frozen copy
of the row-major engine that the root-major one replaced pins every bit
of the Aberth iteration and the polishing, and of the tables of maps of
degree 4 and more, whose rows the iteration solves (rows of degree 2 and
3 take the closed forms).  Frozen copies of the
row-major critical-point merge and of the closed form before its Newton
step pin the merge's bits and bound the step against the polish it
replaced.
"""

import cmath
import math

import numpy as np
import pytest

from lyubich_lab import _fiber, preimage_solver, roots
from lyubich_lab.errors import RootFindingFailure
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.preimage_solver import iterated_preimages, preimages
from lyubich_lab.rational_map import (RationalMap, builtin_map, critical_points, evaluate,
                                      fiber_plan)
from lyubich_lab.sphere import INFINITY, as_point, sphere_points

NEWTON = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")
CHEB3 = RationalMap([0, -3, 0, 1], [1], name="z^3-3z")
# (z^2 + 1) / (z^2 - 1): critical value -1 (over the critical point 0, the
# fiber polynomial is 2z^2) and 1 (over infinity, where P - wQ drops to 2).
DROP = RationalMap([1, 0, 1], [-1, 0, 1], name="drop")
# (z^2 + 1)^2 / (4z(z^2 - 1)): a Lattès map of degree 4.
LATTES = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4], name="lattes")


def _shifted_power(e, center=1):
    """(z - center)^e - 3: one critical point of index e at ``center``,
    over -3."""
    coeffs = np.polynomial.polynomial.polyfromroots([center] * e)
    coeffs[0] -= 3
    return RationalMap(coeffs, [1], name=f"(z-{center})^{e}-3")


SEXTIC = _shifted_power(6)

# Bound on the chordal distance between engine and reference atoms: both
# polish the same simple roots, so they differ only in the last bits.
AGREEMENT = 1e-12


def _chordal(z, z_inf, w, w_inf):
    finite = 2 * np.abs(z - w) / (np.hypot(1, np.abs(z)) * np.hypot(1, np.abs(w)))
    return np.where(z_inf | w_inf, np.where(z_inf & w_inf, 0.0, 2.0), finite)


def _value(c, z):
    return sum(c[:, k:k + 1] * z ** k for k in range(c.shape[1]))


def _newton(h, z, steps=3):
    """Plain Newton steps on each row of h, kept where the residual drops."""
    dh = h[:, 1:] * np.arange(1, h.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(steps):
            moved = z - _value(h, z) / _value(dh, z)
            better = np.isfinite(moved) & (np.abs(_value(h, moved)) <= np.abs(_value(h, z)))
            z = np.where(better, moved, z)
    return z


def _reference_table(rmap, points, infinite):
    """The fibers over each point as flat (points, inf_mask, mult, offsets)
    arrays, from the companion matrices of the fiber polynomials."""
    n = rmap.degree
    num, den = rmap._num_pad, rmap._den_pad
    w = np.where(infinite, 0, points)[:, None]
    h = np.where(infinite[:, None], den, num - w * den)
    size = np.where(infinite[:, None], np.abs(den), np.abs(num) + np.abs(w) * np.abs(den))
    # The degree left once leading coefficients that cancel are dropped.
    top = np.array([max([d for d in range(1, n + 1) if abs(row[d]) > 1e-10 * s[d]],
                        default=0) for row, s in zip(h, size)])
    found = [np.zeros(0, dtype=complex)] * points.size
    for t in set(top.tolist()) - {0}:
        rows = np.flatnonzero(top == t)
        companion = np.zeros((rows.size, t, t), dtype=complex)
        companion[:, 0, :] = -h[rows, t - 1::-1] / h[rows, t:t + 1]
        companion[:, np.arange(1, t), np.arange(t - 1)] = 1
        z = _newton(h[rows, :t + 1], np.linalg.eigvals(companion))
        for r, zr in zip(rows, z):
            found[r] = zr
    crit = [(d.point.value, d.index) for d in critical_points(rmap) if not d.point.infinite]
    fibers = []
    for row, z, t in zip(h, found, top):
        atoms = [(zi, False, 1) for zi in z]
        for c, e in crit:
            scale = sum(abs(hk) * max(1, abs(c)) ** k for k, hk in enumerate(row))
            if abs(np.polyval(row[::-1], c)) <= 1e-12 * scale:
                near = sorted(range(len(atoms)), key=lambda i: abs(atoms[i][0] - c))[:e]
                # The e-fold root is a simple root of h^(e-1); find it from c.
                dh = row[None, :]
                for _ in range(e - 1):
                    dh = dh[:, 1:] * np.arange(1, dh.shape[1])
                z = complex(_newton(dh, np.array([[c]]))[0, 0])
                atoms = [a for i, a in enumerate(atoms) if i not in near] + [(z, False, e)]
        if t < n:
            atoms.append((0j, True, n - t))
        fibers.append(sorted(atoms, key=lambda a: (a[1], a[0].real, a[0].imag)))
    flat = [a for fiber in fibers for a in fiber]
    return (np.array([a[0] for a in flat], dtype=complex),
            np.array([a[1] for a in flat], dtype=bool),
            np.array([a[2] for a in flat], dtype=np.int64),
            np.concatenate([[0], np.cumsum([len(f) for f in fibers])]))


def _targets(values):
    pts = [as_point(w) for w in values]
    return np.array([p.value for p in pts]), np.array([p.infinite for p in pts])


def _solve(rmap, points, infinite):
    return _fiber.solve_fibers(fiber_plan(rmap), points, infinite)


def _assert_matches_reference(rmap, points, infinite, got, parent_cum=None):
    """Each reference atom has its own engine atom of the same fiber within
    AGREEMENT, with the same infinity flag and multiplicity (times the
    parent's running product, for tree levels)."""
    got_points, got_inf, got_mult, got_parent = got
    ref_points, ref_inf, ref_mult, ref_offsets = _reference_table(rmap, points, infinite)
    ref_parent = np.repeat(np.arange(points.size), np.diff(ref_offsets))
    if parent_cum is not None:
        ref_mult = ref_mult * parent_cum[ref_parent]
    assert got_points.size == ref_points.size
    assert np.sum(got_inf) == np.sum(ref_inf)
    assert sorted(got_mult) == sorted(ref_mult)
    # Nearest engine sibling of each reference atom, slot by slot.
    by_parent = np.argsort(got_parent, kind="stable")
    start = np.searchsorted(got_parent[by_parent], ref_parent)
    width = np.bincount(got_parent, minlength=points.size)[ref_parent]
    dist = np.full((ref_points.size, rmap.degree), np.inf)
    for j in range(rmap.degree):
        cand = by_parent[np.minimum(start + j, got_points.size - 1)]
        d = _chordal(ref_points, ref_inf, got_points[cand], got_inf[cand])
        dist[:, j] = np.where(j < width, d, np.inf)
    nearest = by_parent[start + np.argmin(dist, axis=1)]
    assert np.unique(nearest).size == got_points.size
    assert np.max(np.min(dist, axis=1)) <= AGREEMENT
    np.testing.assert_array_equal(got_inf[nearest], ref_inf)
    np.testing.assert_array_equal(got_mult[nearest], ref_mult)


LEVELS = [
    pytest.param(builtin_map("quad"), complex(np.exp(2j * np.pi * 0.3)), 12, id="quad"),
    pytest.param(builtin_map("basilica"), None, 11, id="basilica"),
    pytest.param(builtin_map("chebyshev"), None, 10, id="chebyshev"),
    pytest.param(NEWTON, INFINITY, 7, id="newton-inf"),
    pytest.param(NEWTON, 0.4 + 0.2j, 7, id="newton-finite"),
    pytest.param(CHEB3, -2, 7, id="z^3-3z"),
    pytest.param(SEXTIC, -3, 4, id="(z-1)^6-3"),
]

# Mixed blocks, with no tree: infinity, critical values and a degree drop
# among generic targets.
MIXED = [
    pytest.param(DROP, [0.3 + 0.2j, INFINITY, -1, 1, -0.5j], None, id="drop-mixed"),
    pytest.param(CHEB3, [0.7 - 0.1j, -2, 1.1j, -2 + 1e-9], None, id="z^3-3z-mixed"),
]


@pytest.mark.parametrize("rmap,root,depth", LEVELS)
def test_batched_levels_agree_with_scalar_fibers(rmap, root, depth):
    # z^3-3z rooted at -2 meets its double root over -2 on every level,
    # Newton rooted at infinity its double pole 0, and (z-1)^6-3 rooted at
    # -3 its sixfold root 1 on the first level.
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    for k in range(1, depth + 1):
        prev, lvl = tree.level(k - 1), tree.level(k)
        _assert_matches_reference(rmap, prev.points, prev.inf_mask,
                                  (lvl.points, lvl.inf_mask, lvl.cum, lvl.parent),
                                  prev.cum)


def test_special_rows_match_the_reference(monkeypatch):
    calls = []
    monkeypatch.setattr(_fiber, "solve_fiber", lambda *args: calls.append(args))
    cases = [
        # generic, infinite target, critical value, degree drop
        (DROP, [0.3 + 0.2j, INFINITY, -1, 1]),
        # z^3 - 3z at its critical value -2: a double root and a simple one
        (CHEB3, [0.7 - 0.1j, -2, 1.1j]),
        # a double pole: the exact root at 0 of the fiber over infinity
        (NEWTON, [INFINITY, 0.4 + 0.2j]),
    ]
    for rmap, values in cases:
        points, infinite = _targets(values)
        got_points, got_inf, got_mult, offsets = _solve(rmap, points, infinite)
        parent = np.repeat(np.arange(points.size), np.diff(offsets))
        _assert_matches_reference(rmap, points, infinite,
                                  (got_points, got_inf, got_mult, parent))
    assert calls == []


def test_rows_past_the_iteration_cap_fall_back(monkeypatch):
    # Quartic rows: the rows of degrees 2 and 3 take the closed forms, not
    # the iteration.
    points, infinite = _targets([0.3 + 0.2j, -1.5 + 0.1j, 0.5 + 2j])
    want = _solve(LATTES, points, infinite)
    # A block that the cap splits, solved without the cap: its rows first
    # meet the residual test at iterations 6, 15, 18 and 28.
    values = np.array([0.3 + 0.2j, 100.0, 1e3, 1e6j])
    finite = np.zeros(4, dtype=bool)
    h = LATTES._num_pad - values[:, None] * LATTES._den_pad
    full, converged = roots.aberth_rows(h)
    assert converged.all()
    want_split = _solve(LATTES, values, finite)
    calls = []
    companion = roots.companion_rows

    def counting(h):
        calls.append(h.shape[0])
        return companion(h)

    monkeypatch.setattr(roots, "companion_rows", counting)
    monkeypatch.setattr(roots, "MAX_ITERATIONS", 2)
    got = _solve(LATTES, points, infinite)
    assert calls == [3]
    assert np.max(np.abs(got[0] - want[0])) <= AGREEMENT
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)

    # At 6 iterations one row of four has finished, too few to be dropped
    # from the iteration, and at 15 two have, and are dropped.  Either way
    # the finished rows keep their Aberth roots and only the others reach
    # the companion matrices.
    for cap, finished in ((6, [0]), (15, [0, 1])):
        monkeypatch.setattr(roots, "MAX_ITERATIONS", cap)
        z, converged = roots.aberth_rows(h)
        np.testing.assert_array_equal(np.flatnonzero(converged), finished)
        assert z[converged].tobytes() == full[converged].tobytes()
        calls.clear()
        got = _solve(LATTES, values, finite)
        assert calls == [4 - len(finished)]
        for j in finished:
            for a, b in zip(got[:3], want_split[:3]):
                assert a[4 * j:4 * j + 4].tobytes() == b[4 * j:4 * j + 4].tobytes()


def test_quadratic_rows_that_fail_the_residual_test_fall_back(monkeypatch):
    quad = builtin_map("quad")
    values = np.array([0.3 + 0.2j, 1.0, 0.7 - 0.1j, 0.25])
    finite = np.zeros(4, dtype=bool)
    want = _solve(quad, values, finite)
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
    # With no tolerance only exact roots pass: those of z^2 - 1 and
    # z^2 - 1/4 keep their closed-form bits, the others reach the
    # companion matrices and the three-step polish.
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 0.0)
    h = quad._num_pad - values[:, None] * quad._den_pad
    _, converged = roots.quadratic_rows(h)
    np.testing.assert_array_equal(converged, [False, True, False, True])
    got = _solve(quad, values, finite)
    assert calls == [2]
    assert polished == [2]
    assert np.max(np.abs(got[0] - want[0])) <= AGREEMENT
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)
    for j in (1, 3):
        for a, b in zip(got[:3], want[:3]):
            assert a[2 * j:2 * j + 2].tobytes() == b[2 * j:2 * j + 2].tobytes()
    # The others keep the bits of the frozen polish of their companion roots.
    fell = h[[0, 2]]
    ref = _ref_polish_rows(fell, companion(fell))
    for j, row in zip((0, 2), ref):
        assert np.sort_complex(got[0][2 * j:2 * j + 2]).tobytes() == np.sort_complex(row).tobytes()


def test_a_quadratic_row_with_a_nan_coefficient_raises():
    h = np.array([[0.3, 0, 1], [np.nan, 0, 1], [1, 2j, 1]], dtype=complex)
    with np.errstate(all="ignore"), pytest.raises(RootFindingFailure):
        roots.rows_roots(h)


def test_a_nan_target_raises():
    # Its fiber polynomial is NaN throughout, leading coefficient included,
    # which is no degree drop.
    quad = builtin_map("quad")
    with np.errstate(all="ignore"), pytest.raises(RootFindingFailure):
        preimage_solver.gather_fibers(quad, np.array([np.nan, 0.5]), np.array([False, False]))
    with np.errstate(all="ignore"), pytest.raises(RootFindingFailure):
        roots.rows_roots(quad._num_pad - np.array([[np.nan], [0.5]]) * quad._den_pad)
    # Flagged infinite, the same value is infinity.
    fib = preimage_solver.gather_fibers(quad, np.array([np.nan, 0.5]), np.array([True, False]))
    assert fib.offsets.tolist() == [0, 1, 3]
    assert fib.inf_mask.tolist() == [True, False, False]


@pytest.mark.parametrize("rmap,root,depth", [
    pytest.param(builtin_map("basilica"), None, 9, id="basilica"),
    pytest.param(NEWTON, INFINITY, 6, id="newton-inf"),
    *MIXED,
])
def test_block_size_never_changes_an_answer(monkeypatch, rmap, root, depth):
    if depth is None:
        points, infinite = _targets(root)
    else:
        root = default_root(rmap) if root is None else root
        whole = iterated_preimages(rmap, root, depth)
        lvl = whole.level(depth - 1)
        points, infinite = lvl.points, lvl.inf_mask
    one = _solve(rmap, points, infinite)
    for rows in (1, 7, 100):
        parts = [_solve(rmap, points[s:s + rows], infinite[s:s + rows])
                 for s in range(0, points.size, rows)]
        for got, want in zip(zip(*parts), one[:3]):
            np.testing.assert_array_equal(np.concatenate(got), want)

    # The one-row fronts are the same engine.
    plan = fiber_plan(rmap)
    for j, w in enumerate(sphere_points(points, infinite)):
        at = slice(one[3][j], one[3][j + 1])
        want = list(zip(one[0][at], one[1][at], one[2][at]))
        single = _fiber.solve_fiber(plan, w)
        for atoms in (single, preimages(rmap, w).atoms):
            assert [(p.value, p.infinite, m) for p, m in atoms] == want

    if depth is not None:
        monkeypatch.setattr(preimage_solver, "_BLOCK_ROWS", 5)
        blocked = iterated_preimages(rmap, root, depth)
        for a, b in zip(whole.levels, blocked.levels):
            for name in ("points", "inf_mask", "cum", "parent"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_blocks_above_the_elision_size_keep_every_bit(monkeypatch):
    # From 256 KiB numpy may run an operation in place in a temporary
    # operand: the engine's arrays cross that size at 8192 quadratic rows.
    basilica = builtin_map("basilica")
    root = default_root(basilica)
    trees = []
    for rows in (1024, 4096, 16384):
        monkeypatch.setattr(preimage_solver, "_BLOCK_ROWS", rows)
        trees.append(iterated_preimages(basilica, root, 14))
    for tree in trees[1:]:
        _assert_same_levels(tree, trees[0])

    lvl = trees[0].level(13)
    assert lvl.size == 8192
    one = _solve(basilica, lvl.points, lvl.inf_mask)
    parts = [_solve(basilica, lvl.points[s:s + 1000], lvl.inf_mask[s:s + 1000])
             for s in range(0, lvl.size, 1000)]
    for got, want in zip(zip(*parts), one[:3]):
        assert np.concatenate(got).tobytes() == want.tobytes()


# The row-major engine that the root-major one replaced, frozen as it was:
# coefficients (rows, degree + 1), roots (rows, degree).


def _ref_rows_eval(c, z):
    value = np.zeros_like(z)
    for k in range(c.shape[1] - 1, -1, -1):
        value = value * z + c[:, k:k + 1]
    return value


def _ref_rows_eval_with_scale(c, abs_c, z):
    value = np.zeros_like(z)
    scale = np.zeros(z.shape)
    az = np.abs(z)
    for k in range(c.shape[1] - 1, -1, -1):
        value = value * z + c[:, k:k + 1]
        scale = scale * az + abs_c[:, k:k + 1]
    return value, scale


def _ref_aberth_rows(h):
    rows, n = h.shape[0], h.shape[1] - 1
    c = h / np.abs(h).max(axis=1, keepdims=True)
    radius = 1.0 + np.abs(c[:, :n] / c[:, n:]).max(axis=1)
    z = radius[:, None] * np.array([cmath.exp(2j * math.pi * (k / n + 0.3779))
                                    for k in range(n)])
    live = np.arange(rows)
    zi, ci, dci = z, c, c[:, 1:] * np.arange(1, n + 1)
    abs_ci = np.abs(c)
    done = np.zeros(z.shape, dtype=bool)
    for _ in range(roots.MAX_ITERATIONS):
        pv, scale = _ref_rows_eval_with_scale(ci, abs_ci, zi)
        done |= np.abs(pv) <= roots.RESIDUAL_TOL * np.maximum(scale, 1e-300)
        busy = ~done.all(axis=1)
        z[live[~busy]] = zi[~busy]
        if not busy.any():
            live = live[busy]
            break
        if not busy.all():
            live, zi, ci, dci, abs_ci, done, pv = (
                a[busy] for a in (live, zi, ci, dci, abs_ci, done, pv))
        dv = _ref_rows_eval(dci, zi)
        stuck = dv == 0
        newton = pv / dv
        az = np.abs(zi)
        repulsion = np.zeros_like(zi)
        for j in range(n):
            dz = zi - zi[:, j:j + 1]
            inv = 1.0 / np.where(dz == 0, 1e-14 * (1 + az), dz)
            inv[:, j] = 0
            repulsion += inv
        denom = 1.0 - newton * repulsion
        step = np.where(denom == 0, newton, newton / denom)
        moved = np.where(stuck, zi * (1.0 + 1e-6 + 1e-6j), zi - step)
        zi = np.where(done, zi, moved)
    converged = np.ones(rows, dtype=bool)
    converged[live] = False
    return z, converged


def _ref_polish_rows(h, z, multiplicity=1, steps=3):
    n = h.shape[1] - 1
    dh = h[:, 1:] * np.arange(1, n + 1)
    pv = _ref_rows_eval(h, z)
    best, best_res = z, np.abs(pv)
    stepping = np.ones(z.shape, dtype=bool)
    for _ in range(steps):
        dv = _ref_rows_eval(dh, z)
        stepping &= dv != 0
        moved = z - multiplicity * pv / dv
        stepping &= np.isfinite(moved)
        res = _ref_rows_eval(h, moved)
        abs_res = np.abs(res)
        better = stepping & (abs_res <= best_res)
        best = np.where(better, moved, best)
        best_res = np.where(better, abs_res, best_res)
        z = np.where(stepping, moved, z)
        pv = np.where(stepping, res, pv)
    return best


def _assert_same_levels(tree, other):
    for a, b in zip(tree.levels, other.levels, strict=True):
        for name in ("points", "inf_mask", "cum", "parent"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def _assert_rows_keep_the_reference_bits(rmap, points, infinite):
    """aberth_rows and polish_rows on the fiber polynomials of the finite
    targets whose degree does not drop, against the frozen engine.  The
    iteration runs here on rows of every degree, quadratics included,
    though the fiber engine solves those in closed form."""
    num, den, n = rmap._num_pad, rmap._den_pad, rmap.degree
    w = points[~infinite, None]
    h = num - w * den
    lead = abs(num[n]) + np.abs(w[:, 0]) * abs(den[n])
    h = h[(np.abs(h[:, n]) > 1e-10 * lead) & (h[:, 0] != 0)]
    with np.errstate(all="ignore"):
        z, converged = _ref_aberth_rows(h)
        got, got_converged = roots.aberth_rows(h)
        assert got.tobytes() == z.tobytes()
        np.testing.assert_array_equal(got_converged, converged)
        for m in (1, 2):
            assert roots.polish_rows(h, z, m).tobytes() == _ref_polish_rows(h, z, m).tobytes()


@pytest.mark.parametrize("rmap,root,depth", [
    *LEVELS,
    pytest.param(LATTES, None, 6, id="lattes"),
    pytest.param(_shifted_power(2), -3, 10, id="(z-1)^2-3"),
    # 1728 targets of degree 12: arrays above 256 KiB in one block.
    pytest.param(_shifted_power(12), 0.5, 4, id="(z-1)^12-3"),
    *MIXED,
])
def test_engine_keeps_the_bits_of_the_row_major_engine(monkeypatch, rmap, root, depth):
    if depth is None:
        points, infinite = _targets(root)
        one = _solve(rmap, points, infinite)
        with monkeypatch.context() as patch:
            patch.setattr(roots, "aberth_rows", _ref_aberth_rows)
            patch.setattr(roots, "polish_rows", _ref_polish_rows)
            ref = _solve(rmap, points, infinite)
        for got, want in zip(one, ref, strict=True):
            assert got.tobytes() == want.tobytes()
        _assert_rows_keep_the_reference_bits(rmap, points, infinite)
        return

    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    # The trees of maps of degree 2 and 3 never reach the iteration, so
    # only their rows are compared.
    if rmap.degree >= 4:
        with monkeypatch.context() as patch:
            patch.setattr(roots, "aberth_rows", _ref_aberth_rows)
            patch.setattr(roots, "polish_rows", _ref_polish_rows)
            ref = iterated_preimages(rmap, root, depth)
        _assert_same_levels(tree, ref)
    for lvl in tree.levels[:-1]:
        _assert_rows_keep_the_reference_bits(rmap, lvl.points, lvl.inf_mask)


# The critical-point merge as it was, row-major: the scale of its
# backward-error test summed along each (rows, n + 1) row.


def _ref_merge_at_critical_point(h, points, inf_mask, mult, c, e):
    """Returns the number of rows that meet the test."""
    scale = (np.abs(h) * max(1.0, abs(c)) ** np.arange(h.shape[1])).sum(axis=1)
    value = roots.horner(h.T, np.full((1, h.shape[0]), c))[0]
    hit = np.flatnonzero(np.abs(value) <= roots.RESIDUAL_TOL * scale)
    if not hit.size:
        return 0
    m = mult[hit]
    dist = np.where((m > 0) & ~inf_mask[hit], np.abs(points[hit] - c), np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    m_sorted = np.take_along_axis(m, order, axis=1)
    taken_sorted = ((np.cumsum(m_sorted, axis=1) - m_sorted < e)
                    & np.isfinite(np.take_along_axis(dist, order, axis=1)))
    taken = np.zeros_like(taken_sorted)
    np.put_along_axis(taken, order, taken_sorted, axis=1)
    total = np.where(taken, m, 0).sum(axis=1)
    m[taken] = 0
    first = order[:, 0]
    m[np.arange(hit.size), first] += total
    mult[hit] = m
    points[hit[total > 0], first[total > 0]] = c
    return hit.size


@pytest.mark.parametrize("rmap", [
    pytest.param(NEWTON, id="newton"),
    pytest.param(CHEB3, id="z^3-3z"),
    pytest.param(builtin_map("basilica"), id="basilica"),
    pytest.param(_shifted_power(3, 0.5), id="|c|<1"),
    pytest.param(_shifted_power(4, 2 - 1j), id="|c|>1"),
    *[pytest.param(_shifted_power(e), id=f"(z-1)^{e}-3") for e in (2, 6, 9, 12)],
])
def test_root_major_merge_keeps_the_bits_of_the_row_major_merge(monkeypatch, rmap):
    # Random targets and targets 1e-16 to 1e-10 off the critical values,
    # so that rows meet the test, miss it, and sit at its edge.
    crit = critical_points(rmap)
    values = [evaluate(rmap, d.point) for d in crit if not d.point.infinite]
    values = [v.value for v in values if not v.infinite]
    rng = np.random.default_rng(4)
    targets = np.concatenate([
        rng.normal(size=200) + 1j * rng.normal(size=200),
        np.repeat(values, 20) * (1 + np.tile(np.geomspace(1e-16, 1e-10, 20), len(values)))])
    infinite = np.zeros(targets.size, dtype=bool)
    hits = []

    def ref(coeffs, points, inf_mask, mult, c, e, powers):
        hits.append(_ref_merge_at_critical_point(np.ascontiguousarray(coeffs.T),
                                                 points, inf_mask, mult, c, e))

    got = _solve(rmap, targets, infinite)
    monkeypatch.setattr(_fiber, "_merge_at_critical_point", ref)
    want = _solve(rmap, targets, infinite)
    assert 0 < sum(hits) < len(hits) * targets.size
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()


# The closed form as it was before it took its Newton step, frozen; the
# fiber engine polished its roots with three steps of polish_rows.


def _ref_closed_form(h):
    """The roots (rows, 2), the residual-test mask and the scaled
    root-major coefficients."""
    h = np.ascontiguousarray(h.T)
    c = h / np.abs(h).max(axis=0)
    c0, b, a = c
    bb = b * b
    ac = a * c0
    d = np.sqrt(bb - 4 * ac)
    d = np.where(b.real * d.real + b.imag * d.imag < 0, -d, d)
    longer = b + d
    q = -0.5 * longer
    z = np.stack([q / a, c0 / q])
    pv = roots.horner(c, z)
    converged = (np.abs(pv) <= roots.RESIDUAL_TOL
                 * np.maximum(roots.horner(np.abs(c), np.abs(z)), 1e-300)).all(axis=0)
    return z.T, converged, c


# Bound on the distance between a closed-form root after its one Newton
# step and the same closed-form root after the three-step polish, in units
# of its modulus: 4 ulps.  The worst on the levels below is 1.1 ulps.
STEP_AGREEMENT = 4 * np.finfo(float).eps


@pytest.mark.parametrize("rmap,root", [
    pytest.param(builtin_map("quad"), complex(np.exp(2j * np.pi * 0.3)), id="quad"),
    pytest.param(builtin_map("basilica"), None, id="basilica"),
    pytest.param(builtin_map("chebyshev"), 2, id="chebyshev"),
])
def test_the_newton_step_agrees_with_the_three_step_polish(rmap, root):
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, 13)
    moved = 0
    # The fibers over levels 0 to 13 are levels 1 to 14.
    for lvl in tree.levels:
        w = lvl.points[~lvl.inf_mask, None]
        h = rmap._num_pad - w * rmap._den_pad
        h = h[h[:, 0] != 0]
        closed, converged, c = _ref_closed_form(h)
        got, got_converged = roots.quadratic_rows(h)
        np.testing.assert_array_equal(got_converged, converged)
        with np.errstate(all="ignore"):
            want = _ref_polish_rows(h, closed)
        got, want, closed, c = got[converged], want[converged], closed[converged], c[:, converged]
        # As sets: each row's roots straight or crossed, whichever is closer.
        crossed = np.abs(got - want[:, ::-1]).max(axis=1) < np.abs(got - want).max(axis=1)
        want = np.where(crossed[:, None], want[:, ::-1], want)
        assert np.all(np.abs(got - want) <= STEP_AGREEMENT * np.abs(want))
        # The step never raises the residual of the closed form.
        assert np.all(np.abs(roots.horner(c, got.T)) <= np.abs(roots.horner(c, closed.T)))
        moved += np.count_nonzero(got != closed)
    assert moved > 0


# The shortcuts of a block whose rows are all plain (no infinite target, no
# degree drop, no exact root at 0): no infinity masking, and the roots
# array as the table.  A plain row keeps every bit when the block also
# holds special rows and takes the row groups instead.


@pytest.mark.parametrize("rmap,zero", [
    pytest.param(builtin_map("basilica"), -1.0, id="basilica"),
    pytest.param(RationalMap([0.3 + 0.5j, 0, 0, 1], [1]), 0.3 + 0.5j, id="z^3+0.3+0.5i"),
])
def test_special_rows_leave_the_bits_of_the_plain_rows(rmap, zero):
    # The fiber polynomial over ``zero`` has a zero constant term.
    rng = np.random.default_rng(12)
    # Complex targets, and real ones: a real map solves them in float64.
    for plain in (rng.normal(size=40) + 1j * rng.normal(size=40), rng.normal(size=40)):
        alone = _solve(rmap, plain, np.zeros(plain.size, dtype=bool))
        values = np.concatenate([plain, [0.0, zero]])
        infinite = np.zeros(values.size, dtype=bool)
        infinite[-2] = True
        points, inf_mask, mult, offsets = _solve(rmap, values, infinite)
        end = offsets[plain.size]
        for a, b in zip(alone, (points[:end], inf_mask[:end], mult[:end],
                                offsets[:plain.size + 1]), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # The special rows took their groups: an atom at infinity over
        # infinity, an exact root at 0 over ``zero``.
        over_infinity = slice(offsets[-3], offsets[-2])
        assert inf_mask[over_infinity].any()
        assert 0 in points[offsets[-2]:offsets[-1]]
        assert mult[over_infinity].sum() == mult[offsets[-2]:].sum() == rmap.degree


def test_a_map_builds_its_fiber_plan_once(monkeypatch):
    built = []
    of = _fiber.FiberPlan.of.__func__

    def counting(cls, *args):
        built.append(args)
        return of(cls, *args)

    monkeypatch.setattr(_fiber.FiberPlan, "of", classmethod(counting))
    rmap = RationalMap([-1, 0, 1], [1], name="basilica")
    tree = iterated_preimages(rmap, default_root(rmap), 10)
    preimages(rmap, 0.5 + 0.25j)
    assert tree.atom_count(10) == 1024
    assert len(built) == 1
    assert fiber_plan(rmap) is fiber_plan(rmap)
    assert len(built) == 1


@pytest.mark.parametrize("rmap", [
    pytest.param(RationalMap([-1, 0.5j, 1], [1]), id="z^2+0.5iz-1"),
    pytest.param(RationalMap([0.3 + 0.5j, 0, 0, 1], [1]), id="z^3+0.3+0.5i"),
])
def test_a_map_with_a_non_real_coefficient_never_solves_in_float64(monkeypatch, rmap):
    plan = fiber_plan(rmap)
    assert not plan.real and plan.num_real is None and plan.den_real is None
    assert all(isinstance(c_real, complex) for _, c_real, _, _ in plan.critical)
    seen = []
    rows_roots = roots.rows_roots

    def recording(h, real=None):
        seen.append((h.dtype.kind, bool(real.any())))
        return rows_roots(h, real)

    def never(*args):
        raise AssertionError("a float64 closed form ran")

    monkeypatch.setattr(roots, "rows_roots", recording)
    monkeypatch.setattr(roots, "_real_quadratic", never)
    monkeypatch.setattr(roots, "_real_cubic", never)
    # Real targets, the critical values, infinity and a tree's levels.
    crit = [evaluate(rmap, d.point) for d in critical_points(rmap)]
    values, infinite = _targets([0.5, -2.0, 0.0, INFINITY, *crit])
    _solve(rmap, values, infinite)
    iterated_preimages(rmap, 0.25, 5)
    assert seen and all(seen_row == ("c", False) for seen_row in seen)
