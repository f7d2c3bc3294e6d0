"""Conjugation symmetry of maps with real coefficients.

Such a map commutes with z -> conj(z): its fibers over conjugate targets
are conjugate, and its fibers over real targets are closed under
conjugation.  The engine keeps this to the bit.  A real row gives real
roots with imaginary part +0 and complex roots in exact conjugate pairs,
whether it is solved in a block of real rows (float64) or in a complex
block.  A fully enumerated tree rooted on the real line or at infinity
solves each level over its atoms with Im >= 0 only and mirrors the rest.
These checks pin the closure of every level, the bits of the fibers that
are still solved, the level order and the Julia sample under a last-bit
change of the root, the real closed forms against the complex ones, and
that maps with non-real coefficients or roots never reach the real route.
"""

import numpy as np
import pytest

from lyubich_lab import _fiber, bimodule_basis, lyubich_measure, preimage_solver, roots
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.preimage_solver import gather_fibers, iterated_preimages
from lyubich_lab.rational_map import RationalMap, builtin_map, critical_points
from lyubich_lab.sphere import INFINITY, SpherePoint, atom_order

NEWTON = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")
CHEB3 = RationalMap([0, -3, 0, 1], [1], name="z^3-3z")
# (z^2 + 1)^2 / (4z(z^2 - 1)): quartic rows, on the Aberth iteration.
LATTES = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4], name="lattes")

TREES = [
    pytest.param(builtin_map("quad"), 1, 12, id="quad@1"),
    pytest.param(builtin_map("basilica"), None, 12, id="basilica"),
    pytest.param(builtin_map("chebyshev"), None, 12, id="chebyshev"),
    pytest.param(CHEB3, None, 8, id="z^3-3z"),
    pytest.param(LATTES, None, 5, id="lattes"),
    pytest.param(NEWTON, INFINITY, 7, id="newton@inf"),
]


def _bits(z):
    """The (real, imag) bit patterns of each entry, as sortable tuples."""
    return sorted(map(tuple, np.ascontiguousarray(z).view(np.int64).reshape(-1, 2).tolist()))


def _assert_closed_under_conjugation(points, inf_mask):
    """Real entries have imaginary part +0, and the others are, as a
    multiset, their own conjugates to the bit."""
    z = points[~inf_mask]
    real = z.imag == 0
    assert not np.signbit(z.imag[real]).any()
    assert _bits(z[~real]) == _bits(np.conj(z[~real]))


@pytest.mark.parametrize("rmap,root,depth", TREES)
def test_every_level_is_closed_under_conjugation(rmap, root, depth):
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    for lvl in tree.levels:
        _assert_closed_under_conjugation(lvl.points, lvl.inf_mask)
    if rmap is CHEB3:
        # Its Julia set is [-2, 2]: every atom is real.
        assert all(not lvl.points.imag.any() for lvl in tree.levels)


def _children(lvl, parents: int) -> list:
    """The indices of each parent's children, in level order."""
    by_parent = np.argsort(lvl.parent, kind="stable")
    ends = np.searchsorted(lvl.parent[by_parent], np.arange(parents + 1))
    return [by_parent[ends[j]:ends[j + 1]] for j in range(parents)]


@pytest.mark.parametrize("rmap,root,depth", [
    pytest.param(builtin_map("basilica"), None, 9, id="basilica"),
    pytest.param(LATTES, None, 4, id="lattes"),
    pytest.param(NEWTON, INFINITY, 6, id="newton@inf"),
])
def test_solved_fibers_keep_their_bits(rmap, root, depth):
    # The fibers over the atoms with Im >= 0 are gather_fibers' on them;
    # an atom with Im < 0 holds its partner's fiber, conjugated.
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)
    mirrored = 0
    for k in range(depth):
        prev, lvl = tree.level(k), tree.level(k + 1)
        children = _children(lvl, prev.size)
        solved = np.flatnonzero(~(prev.points.imag < 0))
        fib = gather_fibers(rmap, prev.points[solved], prev.inf_mask[solved])
        for i, j in enumerate(solved):
            at, s = children[j], slice(fib.offsets[i], fib.offsets[i + 1])
            assert lvl.points[at].tobytes() == fib.points[s].tobytes()
            assert lvl.inf_mask[at].tolist() == fib.inf_mask[s].tolist()
            assert lvl.cum[at].tolist() == (fib.mult[s] * prev.cum[j]).tolist()
        partner = {prev.points[j].tobytes(): j for j in solved}
        for j in np.flatnonzero(prev.points.imag < 0):
            p = partner[np.conj(prev.points[j]).tobytes()]
            conj = np.conj(lvl.points[children[p]])
            order = atom_order(conj, lvl.inf_mask[children[p]])
            assert lvl.points[children[j]].tobytes() == conj[order].tobytes()
            assert lvl.cum[children[j]].tolist() == lvl.cum[children[p]][order].tolist()
            mirrored += 1
    assert mirrored > 0


def _assert_same_order(tree, other, bound):
    for a, b in zip(tree.levels, other.levels, strict=True):
        np.testing.assert_array_equal(a.parent, b.parent)
        np.testing.assert_array_equal(a.cum, b.cum)
        np.testing.assert_array_equal(np.sign(a.points.imag), np.sign(b.points.imag))
        assert np.max(np.abs(a.points - b.points), initial=0.0) <= bound


@pytest.mark.parametrize("rmap,root,depth", [
    pytest.param(builtin_map("quad"), SpherePoint(1.0), 12, id="quad@1"),
    pytest.param(builtin_map("basilica"), None, 12, id="basilica"),
    pytest.param(LATTES, None, 5, id="lattes"),
])
def test_a_last_bit_change_of_the_root_keeps_every_level_order(monkeypatch, rmap, root, depth):
    # The root moves by one ulp and stays real, so every level stays closed
    # under conjugation: no pair's order rests on a last bit any more.
    root = default_root(rmap) if root is None else root
    nudged = SpherePoint(np.nextafter(root.value.real, np.inf))
    assert nudged.value != root.value
    _assert_same_order(iterated_preimages(rmap, root, depth),
                       iterated_preimages(rmap, nudged, depth), 1e-12)

    # The Julia sample of a quadratic map is a fully enumerated tree.
    if rmap.degree == 2:
        sample = bimodule_basis.julia_sample(rmap, 384, 1)
        monkeypatch.setattr(lyubich_measure, "default_root", lambda _: nudged)
        other = bimodule_basis.julia_sample(rmap, 384, 1)
        assert other.size == sample.size
        np.testing.assert_array_equal(np.sign(other.points.imag), np.sign(sample.points.imag))
        assert np.max(np.abs(other.points - sample.points)) <= 1e-12


@pytest.mark.parametrize("rmap,root,depth", [
    pytest.param(builtin_map("quad"), complex(np.exp(2j * np.pi * 0.3)), 10, id="quad"),
    pytest.param(NEWTON, 0.31 + 0.17j, 6, id="newton@0.31+0.17i"),
    pytest.param(RationalMap([0.3 + 0.5j, 0, 0, 1], [1]), None, 6, id="z^3+0.3+0.5i"),
])
def test_no_real_row_no_real_route(monkeypatch, rmap, root, depth):
    # A real map rooted off the real line has no real target at any level,
    # and a map with a non-real coefficient no real row: their trees never
    # reach the mirror, the real closed forms or the pairing.
    root = default_root(rmap) if root is None else root
    tree = iterated_preimages(rmap, root, depth)

    def unreachable(*args, **kwargs):
        raise AssertionError("reached the real route")

    for module, name in ((preimage_solver, "_partners"), (roots, "_real_quadratic"),
                         (roots, "_real_cubic"), (roots, "_conjugate_closed"),
                         (roots, "pair_rows")):
        monkeypatch.setattr(module, name, unreachable)
    again = iterated_preimages(rmap, root, depth)
    for a, b in zip(tree.levels, again.levels, strict=True):
        for name in ("points", "inf_mask", "cum", "parent"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_a_level_that_is_not_closed_is_solved_whole(monkeypatch):
    calls = []
    gather = preimage_solver.gather_fibers

    def counting(rmap, points, inf_mask, siblings=False):
        calls.append(points.size)
        return gather(rmap, points, inf_mask, siblings)

    basilica = builtin_map("basilica")
    root = default_root(basilica)
    monkeypatch.setattr(preimage_solver, "gather_fibers", counting)
    mirrored = iterated_preimages(basilica, root, 8)
    halves = list(calls)
    calls.clear()
    monkeypatch.setattr(preimage_solver, "_partners", lambda level, above, partner: None)
    whole = iterated_preimages(basilica, root, 8)
    assert calls == [lvl.size for lvl in whole.levels[:-1]]
    assert halves == [np.count_nonzero(lvl.points.imag >= 0) for lvl in mirrored.levels[:-1]]
    assert halves[-1] < 0.6 * calls[-1]
    # The same atoms, in the same order, up to the last bits.
    _assert_same_order(mirrored, whole, 1e-14)


def test_critical_points_of_a_real_map_are_closed_under_conjugation():
    cube_roots = [complex(np.exp(2j * np.pi * k / 3)) for k in (1, 2)]
    for rmap, nonreal in ((NEWTON, cube_roots), (LATTES, [1j, -1j])):
        finite = [d for d in critical_points(rmap) if not d.point.infinite]
        points = np.array([d.point.value for d in finite])
        _assert_closed_under_conjugation(points, np.zeros(points.size, dtype=bool))
        for z in nonreal:
            near = points[np.argmin(np.abs(points - z))]
            assert abs(near - z) < 1e-14
            assert np.conj(near) in points
    # A merged atom of a mirrored fiber is a listed critical point: over
    # its critical value e^(-2 pi i/3), Newton's fiber holds the double
    # atom at that point.
    lower = cube_roots[1]
    c = min((d.point.value for d in critical_points(NEWTON)), key=lambda p: abs(p - lower))
    points, _, mult, _ = _fiber.solve_fibers(NEWTON._num_pad, NEWTON._den_pad, 3,
                                             np.array([c]), np.array([False]),
                                             critical_points(NEWTON))
    assert points[mult == 2].tolist() == [c]
