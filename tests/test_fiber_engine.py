"""The batched fiber engine behind the tree builders.

Trees solve whole levels with ``_fiber.solve_fibers``; the scalar
``preimages`` path is the reference.  These checks pin the agreement
between the two, the rows the engine hands to the scalar path, and that
splitting a level into blocks never changes an answer.
"""

import numpy as np
import pytest

from lyubich_lab import _fiber, preimage_solver, roots
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.preimage_solver import iterated_preimages, preimages
from lyubich_lab.rational_map import RationalMap, builtin_map
from lyubich_lab.sphere import INFINITY, as_point, sphere_points

NEWTON = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")
CHEB3 = RationalMap([0, -3, 0, 1], [1], name="z^3-3z")
# (z^2 + 1) / (z^2 - 1): critical value -1 (over the critical point 0, the
# fiber polynomial is 2z^2) and 1 (over infinity, where P - wQ drops to 2).
DROP = RationalMap([1, 0, 1], [-1, 0, 1], name="drop")

# Bound on the distance between batched and scalar atoms: both polish the
# same simple roots, so they differ only in the last bits.
AGREEMENT = 1e-12


def _chordal(z, z_inf, w, w_inf):
    finite = 2 * np.abs(z - w) / (np.hypot(1, np.abs(z)) * np.hypot(1, np.abs(w)))
    return np.where(z_inf | w_inf, np.where(z_inf & w_inf, 0.0, 2.0), finite)


def _scalar_table(rmap, points, infinite):
    """The scalar fibers ``preimages(rmap, w).atoms`` over each point, as
    flat (points, inf_mask, mult, offsets) arrays."""
    fibers = [preimages(rmap, w).atoms for w in sphere_points(points, infinite)]
    atoms = [atom for fiber in fibers for atom in fiber]
    return (np.array([p.value for p, _ in atoms], dtype=complex),
            np.array([p.infinite for p, _ in atoms], dtype=bool),
            np.array([m for _, m in atoms], dtype=np.int64),
            np.concatenate([[0], np.cumsum([len(f) for f in fibers])]))


def _solve(rmap, targets):
    pts = [as_point(w) for w in targets]
    return _fiber.solve_fibers(rmap._num_pad, rmap._den_pad, rmap.degree,
                               np.array([p.value for p in pts]),
                               np.array([p.infinite for p in pts]))


@pytest.mark.parametrize("rmap,root,depth", [
    (builtin_map("quad"), complex(np.exp(2j * np.pi * 0.3)), 12),
    (builtin_map("basilica"), None, 11),
    (builtin_map("chebyshev"), None, 10),
    (NEWTON, INFINITY, 7),
    (NEWTON, 0.4 + 0.2j, 7),
    (CHEB3, -2, 7),
], ids=["quad", "basilica", "chebyshev", "newton-inf", "newton-finite", "z^3-3z"])
def test_batched_levels_agree_with_scalar_fibers(rmap, root, depth):
    # z^3-3z rooted at -2 meets its split double root on every level; the
    # engine hands that fiber to the scalar path, so it agrees too.
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    for k in range(1, depth + 1):
        prev, lvl = tree.level(k - 1), tree.level(k)
        ref_points, ref_inf, ref_mult, ref_offsets = _scalar_table(rmap, prev.points,
                                                                   prev.infinite)
        ref_parent = np.repeat(np.arange(prev.size), np.diff(ref_offsets))
        ref_cum = ref_mult * prev.cum[ref_parent]
        assert lvl.size == ref_points.size
        assert np.sum(lvl.infinite) == np.sum(ref_inf)
        assert sorted(lvl.cum) == sorted(ref_cum)
        # Nearest batched sibling of each scalar atom, slot by slot.
        by_parent = np.argsort(lvl.parent, kind="stable")
        start = np.searchsorted(lvl.parent[by_parent], ref_parent)
        width = np.bincount(lvl.parent, minlength=prev.size)[ref_parent]
        dist = np.full((ref_points.size, rmap.degree), np.inf)
        for j in range(rmap.degree):
            cand = by_parent[np.minimum(start + j, lvl.size - 1)]
            d = _chordal(ref_points, ref_inf, lvl.points[cand], lvl.infinite[cand])
            dist[:, j] = np.where(j < width, d, np.inf)
        nearest = by_parent[start + np.argmin(dist, axis=1)]
        assert np.unique(nearest).size == lvl.size
        assert np.max(np.min(dist, axis=1)) <= AGREEMENT
        np.testing.assert_array_equal(lvl.infinite[nearest], ref_inf)
        np.testing.assert_array_equal(lvl.cum[nearest], ref_cum)


def test_fallback_rows_equal_scalar_fibers(monkeypatch):
    calls = []
    scalar = _fiber.solve_fiber

    def counting(num_pad, den_pad, degree, w):
        calls.append(w)
        return scalar(num_pad, den_pad, degree, w)

    monkeypatch.setattr(_fiber, "solve_fiber", counting)
    cases = [
        # generic, infinite target, critical value, degree drop
        (DROP, [0.3 + 0.2j, INFINITY, -1, 1], [1, 2, 3]),
        # z^3 - 3z at its critical value -2: a near double root
        (CHEB3, [0.7 - 0.1j, -2, 1.1j], [1]),
    ]
    for rmap, targets, fallback_rows in cases:
        calls.clear()
        points, inf_mask, mult, offsets = _solve(rmap, targets)
        assert calls == [as_point(targets[r]) for r in fallback_rows]
        for r, w in enumerate(targets):
            atoms = preimages(rmap, w).atoms
            at = slice(offsets[r], offsets[r + 1])
            want = np.array([p.value for p, _ in atoms])
            if r in fallback_rows:
                np.testing.assert_array_equal(points[at], want)
            else:
                assert np.max(np.abs(points[at] - want)) <= AGREEMENT
            np.testing.assert_array_equal(inf_mask[at], [p.infinite for p, _ in atoms])
            np.testing.assert_array_equal(mult[at], [m for _, m in atoms])


def test_rows_past_the_iteration_cap_fall_back(monkeypatch):
    # The scalar path keeps its own cap, bound when roots was imported.
    monkeypatch.setattr(roots, "MAX_ITERATIONS", 2)
    quad = builtin_map("quad")
    targets = [0.3 + 0.2j, -1.5, 2j]
    points, _, mult, offsets = _solve(quad, targets)
    want = [p.value for w in targets for p, _ in preimages(quad, w).atoms]
    np.testing.assert_array_equal(points, want)
    np.testing.assert_array_equal(offsets, [0, 2, 4, 6])


@pytest.mark.parametrize("rmap,root,depth", [
    (builtin_map("basilica"), None, 9),
    (NEWTON, INFINITY, 6),
], ids=["basilica", "newton-inf"])
def test_block_size_never_changes_an_answer(monkeypatch, rmap, root, depth):
    root = default_root(rmap) if root is None else root
    whole = iterated_preimages(rmap, root, depth)
    lvl = whole.level(depth - 1)
    one = _fiber.solve_fibers(rmap._num_pad, rmap._den_pad, rmap.degree,
                              lvl.points, lvl.infinite)
    for rows in (1, 7, 100):
        parts = [_fiber.solve_fibers(rmap._num_pad, rmap._den_pad, rmap.degree,
                                     lvl.points[s:s + rows], lvl.infinite[s:s + rows])
                 for s in range(0, lvl.size, rows)]
        for got, want in zip(zip(*parts), one[:3]):
            np.testing.assert_array_equal(np.concatenate(got), want)

    monkeypatch.setattr(preimage_solver, "_BLOCK_ROWS", 5)
    blocked = iterated_preimages(rmap, root, depth)
    for a, b in zip(whole.levels, blocked.levels):
        for name in ("points", "infinite", "cum", "parent"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
