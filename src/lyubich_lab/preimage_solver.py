"""Fibers R^{-1}(w) with multiplicities, point sets, flat fiber tables,
and iterated-preimage trees.

The tree is the combinatorial backbone of the preimage-counting measures:
level k is the depth-k measure, an :class:`AtomicMeasure` whose atoms
solve the k-fold composition equal to the root, each carrying the running
product of branch indices along its ancestry as its weight numerator.
Level sums of those products are exactly degree**k, which is what makes
the downstream measure identities testable bit-exactly.

Every fiber is solved by one engine, ``_fiber.solve_fibers``, which takes
its multiple roots from the map's critical points and reads the map
through its ``_fiber.FiberPlan``, built once per map and kept beside the
critical points (``rational_map.fiber_plan``).  :func:`gather_fibers`
solves the fibers over a whole point array into one flat :class:`Fibers`
table, in blocks of ``_BLOCK_ROWS`` points so that the engine's
temporaries stay small; a single block's table is the engine's own, with
nothing copied.  Both tree builders share one level loop that
calls it on each level: level k + 1 is the fibers of level k's atoms in
level order, so ``parent`` never decreases along a level.  A fully
enumerated tree of a map with real coefficients rooted on the real line
or at infinity has levels closed under conjugation; the loop solves each
such level over its atoms with Im >= 0 and infinity only, and gives
every atom below the real line the exact conjugate of its partner's
fiber, so the next level is closed to the bit too.  Tree levels, fiber
tables and Julia samples share :class:`PointSet`, the one implementation
of what a point set derives from its points: its fibers, the fibers over
its images, its power table and each partition's :class:`Cover` table,
each kept by the point set itself.  :func:`preimages` solves one point
through the engine's one-row front ``_fiber.solve_fiber``.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _fiber
from .errors import BudgetExceeded, ExceptionalRoot
from .rational_map import (RationalMap, evaluate_array, fiber_plan, has_real_coefficients,
                           is_exceptional)
from .sphere import INFINITY, SpherePoint, as_point, write_csv
from .test_functions import PowerTable

DEFAULT_BUDGET = 1 << 22

# Points solved per call of the batched fiber engine.  Each call makes
# its numpy calls (a few dozen for the closed form of rows of degree 2 or
# 3, as many per Aberth iteration for the other degrees) whatever the
# block size, so larger blocks spread that fixed cost over more rows; tree
# building time is flat from about 2048 rows up, and 4096 keeps a
# quadratic map's root array at 128 KiB.  Temporaries of 2048 rows and
# more fault their pages in again on every call: measured with getrusage
# in a fresh process on random complex rows, a quadratic_rows call takes
# 368 minor faults at 4096 rows (2.4-2.9 ms), 168 at 2048 (1.1-1.5 ms) and
# none at 1024 (0.3-0.5 ms), while the four trees of the tree_deep
# benchmark took the same time at 1024, 2048 and 4096 rows, within the
# 10-15% that repeat runs differ by.  Every point is solved on its own, so
# any block size gives the same bits (tests/test_fiber_engine.py checks
# 1024 to 16384).
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class WeightedPreimage:
    """The fiber over a target point: distinct atoms with multiplicities."""

    target: SpherePoint
    atoms: tuple

    def points(self) -> list[SpherePoint]:
        return [p for p, _ in self.atoms]


def preimages(rmap: RationalMap, w) -> WeightedPreimage:
    """Solve R(z) = w; multiplicities sum exactly to the degree.

    A degree drop at the leading coefficient of P - wQ contributes an atom
    at infinity with the dropped multiplicity.  Raises RootFindingFailure
    if the root finder cannot meet its residual target.
    """
    target = as_point(w)
    atoms = _fiber.solve_fiber(fiber_plan(rmap), target)
    return WeightedPreimage(target=target, atoms=tuple(atoms))


@dataclass(frozen=True)
class Cover:
    """The members of a partition that are nonzero at each point of a point
    set.  Column j of ``index`` holds the indices of the members nonzero at
    point j in ascending order, and the same column of ``value`` their
    values; shorter columns are padded with index 0 and value 0.  Both
    arrays are (width, points), width being the most members nonzero at
    one point, and read-only."""

    index: np.ndarray            # intp
    value: np.ndarray            # float64

    @classmethod
    def of(cls, matrix: np.ndarray) -> "Cover":
        """The cover table of a (members, points) member matrix."""
        # Point-major, so each point's members come in ascending order.
        at, member = np.nonzero((matrix != 0.0).T)
        counts = np.bincount(at, minlength=matrix.shape[1])
        layer = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
        shape = (int(counts.max(initial=0)), matrix.shape[1])
        index = np.zeros(shape, dtype=np.intp)
        value = np.zeros(shape)
        index[layer, at] = member
        value[layer, at] = matrix[member, at]
        for array in (index, value):
            array.setflags(write=False)
        return cls(index, value)

    @classmethod
    def join(cls, covers: list) -> "Cover":
        """The cover table of the points of ``covers`` in turn: each table
        padded to the widest, then all concatenated along the points."""
        if len(covers) == 1:
            return covers[0]
        width = max(c.index.shape[0] for c in covers)

        def joined(arrays):
            return np.concatenate([np.pad(a, ((0, width - a.shape[0]), (0, 0))) for a in arrays],
                                  axis=1)

        index, value = joined([c.index for c in covers]), joined([c.value for c in covers])
        for array in (index, value):
            array.setflags(write=False)
        return cls(index, value)

    def values(self, count: int) -> np.ndarray:
        """``value`` with the members from index ``count`` on read as 0."""
        return np.where(self.index < count, self.value, 0.0)

    def member(self, members: np.ndarray) -> np.ndarray:
        """The value of member ``members[j]`` at point j: its cover value,
        or 0 where it is not in the point's cover."""
        return np.where(self.index == members, self.value, 0.0).sum(axis=0)


class PointSet:
    """A point array of a map with its infinity mask, and the one owner of
    what is derived from its points, each computed once, when first read:
    the fibers over the points and over their images, the power table that
    polynomials read, and each partition's cover table.  Subclasses hold
    ``map``, ``points`` and ``inf_mask``.
    """

    @property
    def size(self) -> int:
        return self.points.size

    def atom(self, i: int) -> SpherePoint:
        return INFINITY if self.inf_mask[i] else SpherePoint(complex(self.points[i]))

    @cached_property
    def fibers(self) -> "Fibers":
        """The fibers over the points."""
        return gather_fibers(self.map, self.points, self.inf_mask)

    @cached_property
    def sibling_fibers(self) -> "Fibers":
        """The fibers over the images of the points, each holding a point
        and its siblings."""
        return gather_fibers(self.map, self.points, self.inf_mask, siblings=True)

    @cached_property
    def powers(self) -> PowerTable:
        return PowerTable(self.points, self.inf_mask)

    def cover(self, partition) -> Cover:
        """The :class:`Cover` table of ``partition`` on the points, built
        block by block: one ``partition.member_matrix`` call per block of
        ``partition.block`` points, the blocks' tables joined.  No member
        matrix over the whole set is formed."""
        covers = self.__dict__.setdefault("_covers", {})
        if partition not in covers:
            step = partition.block
            # An empty set is one empty block.
            covers[partition] = Cover.join([
                Cover.of(partition.member_matrix(self.points[s:s + step],
                                                 self.inf_mask[s:s + step]))
                for s in range(0, max(self.size, 1), step)])
        return covers[partition]


@dataclass(eq=False)
class Fibers(PointSet):
    """Fibers of a map over a list of points, flattened: the fiber over
    point j fills the slice ``offsets[j]:offsets[j + 1]`` of the other
    arrays."""

    map: RationalMap
    points: np.ndarray
    inf_mask: np.ndarray
    mult: np.ndarray             # int64 branch indices
    offsets: np.ndarray

    def average(self, values: np.ndarray) -> np.ndarray:
        """(1/n) * sum of mult * values per fiber, along the last axis of
        ``values``, summed in fiber order as apply_transfer does."""
        return np.add.reduceat(self.mult * values, self.offsets[:-1], axis=-1) / self.map.degree


def gather_fibers(rmap: RationalMap, points: np.ndarray, inf_mask: np.ndarray,
                  siblings: bool = False) -> Fibers:
    """The fiber over each point of a point array, solved in blocks by the
    batched engine; with ``siblings=True`` the fiber over its image, which
    holds the point and its siblings.  The table of a single block is
    returned as the engine made it; several are joined."""
    if siblings:
        points, inf_mask = evaluate_array(rmap, points, inf_mask)
    plan = fiber_plan(rmap)
    # An empty array is solved as one empty block.
    blocks = [_fiber.solve_fibers(plan, points[s:s + _BLOCK_ROWS], inf_mask[s:s + _BLOCK_ROWS])
              for s in range(0, max(points.size, 1), _BLOCK_ROWS)]
    if len(blocks) == 1:
        return Fibers(rmap, *blocks[0])
    pts, infs, mult, offsets = zip(*blocks)
    counts = np.concatenate([np.diff(o) for o in offsets])
    return Fibers(rmap, np.concatenate(pts), np.concatenate(infs), np.concatenate(mult),
                  np.concatenate([[0], np.cumsum(counts)]))


@dataclass(eq=False)
class AtomicMeasure(PointSet):
    """A finite atomic probability measure with exact rational weights.

    Atom i has weight ``cum[i] / base**depth``.  The numerators are
    integers and always sum to ``base**depth`` exactly.  Level k of a
    preimage tree is its depth-k measure: ``cum`` holds the running
    branch-index products and ``parent`` each atom's index on the level
    above (-1 at the root).  A pushforward keeps each merged atom's
    ``spread`` instead.
    """

    map: RationalMap
    root: SpherePoint
    depth: int
    base: int
    points: np.ndarray           # complex128
    inf_mask: np.ndarray         # bool
    cum: np.ndarray              # int64 weight numerators
    parent: np.ndarray | None = None
    spread: np.ndarray | None = None

    def denominator(self) -> int:
        return self.base ** self.depth

    @cached_property
    def weights(self) -> np.ndarray:
        """The float weights, each ``cum[i] / float(base**depth)``."""
        return self.cum / float(self.denominator())

    def atoms(self) -> list[tuple[SpherePoint, Fraction]]:
        d = self.denominator()
        return [(self.atom(i), Fraction(int(self.cum[i]), d)) for i in range(self.size)]

    def validate(self) -> None:
        if np.any(self.cum <= 0):
            raise ValueError("weights must be positive")
        if int(self.cum.sum()) != self.denominator():
            raise ValueError("weights do not sum to one exactly")

    def to_csv(self, path) -> None:
        """Columns re, im, weight_num, weight_depth; weight = num/base**depth."""
        write_csv(path, ["re", "im", "weight_num", "weight_depth"],
                  [([], self.points, self.inf_mask, [self.cum, self.depth])])


@dataclass
class PreimageTree:
    """Iterated preimages of a root point down to a fixed depth.

    ``weight_base`` is the denominator base of the level weights: the map
    degree for fully enumerated trees, the branch count for sampled ones.
    Level-k running products sum to ``weight_base**k`` exactly.
    """

    map: RationalMap
    root: SpherePoint
    depth: int
    weight_base: int
    levels: list = field(default_factory=list)

    def level(self, k: int) -> AtomicMeasure:
        return self.levels[k]

    def atom_count(self, k: int) -> int:
        return self.levels[k].size

    def level_atoms(self, k: int) -> list[tuple[SpherePoint, int]]:
        lvl = self.levels[k]
        return [(lvl.atom(i), int(lvl.cum[i])) for i in range(lvl.size)]

    def to_csv(self, path) -> None:
        """One row per atom: level, re, im, cumulative_mult, parent_index."""
        write_csv(path, ["level", "re", "im", "cumulative_mult", "parent_index"],
                  [([k], lvl.points, lvl.inf_mask, [lvl.cum, lvl.parent])
                   for k, lvl in enumerate(self.levels)])


def _partners(level: AtomicMeasure, above: AtomicMeasure,
              partner: np.ndarray) -> np.ndarray | None:
    """Each atom's conjugate on a mirrored level, from the partners above:
    the children of two partners are partners slot by slot, and in the
    fiber of a real atom or infinity a child's mirror in its run of equal
    real parts is its partner.  None if the level is not closed to the bit."""
    parent = level.parent
    offset = np.searchsorted(parent, np.arange(above.size))
    mirror = np.arange(level.size) + (offset[partner] - offset)[parent]
    # The children of real atoms and infinity take the mirrors in their runs.
    at = np.flatnonzero(above.points.imag[parent] == 0)
    key = np.where(level.inf_mask[at], np.inf, level.points.real[at])
    first = np.ones(at.size, dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (parent[at[1:]] != parent[at[:-1]])
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    ends = np.append(starts[1:], at.size)
    mirror[at] = at[starts[run] + ends[run] - 1 - np.arange(at.size)]
    return mirror if np.array_equal(level.points.imag[mirror], -level.points.imag) else None


def _grow(rmap: RationalMap, root: SpherePoint, m: int, branches: int,
          budget: int, rng=None) -> PreimageTree:
    """The one level loop behind both tree builders.

    Each level solves its atoms' fibers into one flat table, and the next
    level is each atom's row of it, in level order.  In a fully enumerated
    tree of a real map rooted on the real line or at infinity only atoms
    with Im >= 0 and infinity are solved, and each atom with Im < 0 takes
    its partner's row, conjugated (see :func:`_partners`); below a level
    not closed under conjugation, every level is solved whole.  A child's
    count is its branch index when ``branches`` equals the degree;
    otherwise each node draws ``branches`` of its ``degree`` fiber slots
    from ``rng`` without replacement, in node order, and a child's count
    is its number of draws.
    """
    if m < 0:
        raise ValueError("depth must be non-negative")
    if is_exceptional(rmap, root):
        raise ExceptionalRoot(
            f"{root!r} has a finite backward orbit; preimage measures are undefined there")
    if branches ** m > budget:
        what = "degree" if rng is None else "branches"
        raise BudgetExceeded(
            f"{what}**m = {branches ** m} exceeds the atom budget {budget}")

    n = rmap.degree
    mirror = (branches == n and has_real_coefficients(rmap)
              and (root.infinite or root.value.imag == 0))
    levels = [AtomicMeasure(rmap, root, 0, branches, np.array([root.value], dtype=complex),
                            np.array([root.infinite]), np.ones(1, dtype=np.int64),
                            np.full(1, -1, dtype=np.int64))]
    partner = np.zeros(1, dtype=np.intp) if mirror else None
    for k in range(1, m + 1):
        prev = levels[-1]
        # Each atom reads its own row of one fiber table; on a mirrored
        # level an atom with Im < 0 reads its partner's row, conjugated.
        at = np.arange(prev.size)
        source = at if partner is None else np.where(prev.points.imag < 0, partner, at)
        solved = source == at
        fib = gather_fibers(rmap, prev.points[solved], prev.inf_mask[solved])
        row = (np.cumsum(solved) - 1)[source]
        sizes = np.diff(fib.offsets)[row]
        parent = np.repeat(at, sizes)
        take = np.arange(parent.size) + np.repeat(fib.offsets[row] - np.cumsum(sizes) + sizes, sizes)
        points, inf_mask, counts = fib.points[take], fib.inf_mask[take], fib.mult[take]
        np.conjugate(points, out=points, where=~solved[parent])
        if branches < n:
            # Each fiber's multiplicities sum to n, so node j owns the fiber
            # slots n*j .. n*j + n - 1; a child fills branch-index many.
            slots = np.repeat(np.arange(parent.size), counts)
            draws = np.concatenate([n * j + rng.permutation(n)[:branches]
                                    for j in range(prev.size)])
            counts = np.bincount(slots[draws], minlength=parent.size)
            keep = np.flatnonzero(counts > 0)
            points, inf_mask, counts, parent = (a[keep] for a in (points, inf_mask, counts, parent))
        levels.append(AtomicMeasure(rmap, root, k, branches, points, inf_mask,
                                    counts * prev.cum[parent], parent))
        if partner is not None and k < m:
            partner = _partners(levels[-1], prev, partner)
    return PreimageTree(map=rmap, root=root, depth=m, weight_base=branches, levels=levels)


def iterated_preimages(rmap: RationalMap, w, m: int,
                       budget: int = DEFAULT_BUDGET) -> PreimageTree:
    """Fully enumerated preimage tree of depth m rooted at w.

    Raises ExceptionalRoot when w has a finite backward orbit and
    BudgetExceeded when degree**m would exceed the atom budget.
    """
    return _grow(rmap, as_point(w), m, rmap.degree, budget)


def sampled_tree(rmap: RationalMap, w, m: int, branches_per_node: int,
                 seed: int, budget: int = DEFAULT_BUDGET) -> PreimageTree:
    """Monte Carlo surrogate tree: each node keeps a random subset of children.

    Draws ``branches_per_node`` slots without replacement from the fiber
    multiset (each child occupies branch-index many slots), so the induced
    leaf weights are unbiased for the full-tree weights and
    ``branches_per_node == degree`` reproduces the full tree exactly.
    Deterministic for a given seed.
    """
    root = as_point(w)
    n = rmap.degree
    b = int(branches_per_node)
    if not 1 <= b <= n:
        raise ValueError(f"branches_per_node must be in [1, {n}]")
    return _grow(rmap, root, m, b, budget, np.random.default_rng(seed))
