"""The fiber engine behind every fiber solve.

Every fiber, of a tree level or of a single point, is solved by
``_fiber.solve_fibers``.  The reference here is independent of it: the
eigenvalues of each row's companion matrix, stacked per degree and
Newton-polished in this file, with the critical-point rule for multiple
roots written out again.  These checks pin the agreement between the two,
the rows past the iteration cap, and that splitting the targets into
blocks never changes an answer.
"""

import numpy as np
import pytest

from lyubich_lab import _fiber, preimage_solver, roots
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.preimage_solver import iterated_preimages, preimages
from lyubich_lab.rational_map import RationalMap, builtin_map, critical_points
from lyubich_lab.sphere import INFINITY, as_point, sphere_points

NEWTON = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")
CHEB3 = RationalMap([0, -3, 0, 1], [1], name="z^3-3z")
# (z^2 + 1) / (z^2 - 1): critical value -1 (over the critical point 0, the
# fiber polynomial is 2z^2) and 1 (over infinity, where P - wQ drops to 2).
DROP = RationalMap([1, 0, 1], [-1, 0, 1], name="drop")
# (z - 1)^6 - 3: one critical point of index 6 at 1, over -3.
SEXTIC = RationalMap([-2, -6, 15, -20, 15, -6, 1], [1], name="(z-1)^6-3")

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
    return _fiber.solve_fibers(rmap._num_pad, rmap._den_pad, rmap.degree,
                               points, infinite, critical_points(rmap))


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


@pytest.mark.parametrize("rmap,root,depth", [
    (builtin_map("quad"), complex(np.exp(2j * np.pi * 0.3)), 12),
    (builtin_map("basilica"), None, 11),
    (builtin_map("chebyshev"), None, 10),
    (NEWTON, INFINITY, 7),
    (NEWTON, 0.4 + 0.2j, 7),
    (CHEB3, -2, 7),
    (SEXTIC, -3, 4),
], ids=["quad", "basilica", "chebyshev", "newton-inf", "newton-finite", "z^3-3z",
        "(z-1)^6-3"])
def test_batched_levels_agree_with_scalar_fibers(rmap, root, depth):
    # z^3-3z rooted at -2 meets its double root over -2 on every level,
    # Newton rooted at infinity its double pole 0, and (z-1)^6-3 rooted at
    # -3 its sixfold root 1 on the first level.
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    for k in range(1, depth + 1):
        prev, lvl = tree.level(k - 1), tree.level(k)
        _assert_matches_reference(rmap, prev.points, prev.infinite,
                                  (lvl.points, lvl.infinite, lvl.cum, lvl.parent),
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
    quad = builtin_map("quad")
    points, infinite = _targets([0.3 + 0.2j, -1.5, 2j])
    want = _solve(quad, points, infinite)
    calls = []
    companion = roots.companion_rows

    def counting(h):
        calls.append(h.shape[0])
        return companion(h)

    monkeypatch.setattr(roots, "companion_rows", counting)
    monkeypatch.setattr(roots, "MAX_ITERATIONS", 2)
    got = _solve(quad, points, infinite)
    assert calls == [3]
    assert np.max(np.abs(got[0] - want[0])) <= AGREEMENT
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rmap,root,depth", [
    (builtin_map("basilica"), None, 9),
    (NEWTON, INFINITY, 6),
    # Mixed blocks, with no tree: infinity, critical values and a degree
    # drop among generic targets.
    (DROP, [0.3 + 0.2j, INFINITY, -1, 1, -0.5j], None),
    (CHEB3, [0.7 - 0.1j, -2, 1.1j, -2 + 1e-9], None),
], ids=["basilica", "newton-inf", "drop-mixed", "z^3-3z-mixed"])
def test_block_size_never_changes_an_answer(monkeypatch, rmap, root, depth):
    if depth is None:
        points, infinite = _targets(root)
    else:
        root = default_root(rmap) if root is None else root
        whole = iterated_preimages(rmap, root, depth)
        lvl = whole.level(depth - 1)
        points, infinite = lvl.points, lvl.infinite
    one = _solve(rmap, points, infinite)
    for rows in (1, 7, 100):
        parts = [_solve(rmap, points[s:s + rows], infinite[s:s + rows])
                 for s in range(0, points.size, rows)]
        for got, want in zip(zip(*parts), one[:3]):
            np.testing.assert_array_equal(np.concatenate(got), want)

    # The one-row fronts are the same engine.
    crit = critical_points(rmap)
    for j, w in enumerate(sphere_points(points, infinite)):
        at = slice(one[3][j], one[3][j + 1])
        want = list(zip(one[0][at], one[1][at], one[2][at]))
        single = _fiber.solve_fiber(rmap._num_pad, rmap._den_pad, rmap.degree, w, crit)
        for atoms in (single, preimages(rmap, w).atoms):
            assert [(p.value, p.infinite, m) for p, m in atoms] == want

    if depth is not None:
        monkeypatch.setattr(preimage_solver, "_BLOCK_ROWS", 5)
        blocked = iterated_preimages(rmap, root, depth)
        for a, b in zip(whole.levels, blocked.levels):
            for name in ("points", "infinite", "cum", "parent"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
