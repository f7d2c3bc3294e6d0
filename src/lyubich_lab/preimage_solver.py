"""Fibers R^{-1}(w) with multiplicities, flat fiber tables, and
iterated-preimage trees.

The tree is the combinatorial backbone of the preimage-counting measures:
level k holds the solutions of the k-fold composition equal to the root,
each carrying the running product of branch indices along its ancestry.
Level sums of those products are exactly degree**k, which is what makes
the downstream measure identities testable bit-exactly.

Every fiber is solved by one engine, ``_fiber.solve_fibers``, which takes
its multiple roots from the map's critical points.  :func:`gather_fibers`
solves the fibers over a whole point array into one flat :class:`Fibers`
table, in blocks of ``_BLOCK_ROWS`` points so that the engine's
temporaries stay small.  Both tree builders share one level loop that
calls it on each level, and the operator checks call it on levels and
samples.  :func:`preimages` solves one point through the engine's
one-row front ``_fiber.solve_fiber``.
"""

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _fiber
from .errors import BudgetExceeded, ExceptionalRoot
from .rational_map import RationalMap, critical_points, evaluate_array, is_exceptional
from .sphere import INFINITY, SpherePoint, as_point

DEFAULT_BUDGET = 1 << 22

# Points solved per call of the batched fiber engine.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class WeightedPreimage:
    """The fiber over a target point: distinct atoms with multiplicities."""

    target: SpherePoint
    atoms: tuple

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.atoms)

    def points(self) -> list[SpherePoint]:
        return [p for p, _ in self.atoms]


def preimages(rmap: RationalMap, w) -> WeightedPreimage:
    """Solve R(z) = w; multiplicities sum exactly to the degree.

    A degree drop at the leading coefficient of P - wQ contributes an atom
    at infinity with the dropped multiplicity.  Raises RootFindingFailure
    if the root finder cannot meet its residual target.
    """
    target = as_point(w)
    atoms = _fiber.solve_fiber(rmap._num_pad, rmap._den_pad, rmap.degree, target,
                               critical_points(rmap))
    return WeightedPreimage(target=target, atoms=tuple(atoms))


class Fibers(NamedTuple):
    """Fibers over a list of points, flattened: the fiber over point j
    fills the slice ``offsets[j]:offsets[j + 1]`` of the other arrays."""

    points: np.ndarray
    inf_mask: np.ndarray
    mult: np.ndarray             # int64 branch indices
    offsets: np.ndarray
    degree: int

    def average(self, values: np.ndarray) -> np.ndarray:
        """(1/n) * sum of mult * values per fiber, along the last axis of
        ``values``, summed in fiber order as apply_transfer does."""
        return np.add.reduceat(self.mult * values, self.offsets[:-1], axis=-1) / self.degree


def gather_fibers(rmap: RationalMap, points: np.ndarray, inf_mask: np.ndarray,
                  siblings: bool = False) -> Fibers:
    """The fiber over each point of a point array, solved in blocks by the
    batched engine; with ``siblings=True`` the fiber over its image, which
    holds the point and its siblings."""
    if siblings:
        points, inf_mask = evaluate_array(rmap, points, inf_mask)
    critical = critical_points(rmap)
    # An empty array is solved as one empty block.
    blocks = [_fiber.solve_fibers(rmap._num_pad, rmap._den_pad, rmap.degree,
                                  points[s:s + _BLOCK_ROWS], inf_mask[s:s + _BLOCK_ROWS],
                                  critical)
              for s in range(0, max(points.size, 1), _BLOCK_ROWS)]
    pts, infs, mult, offsets = zip(*blocks)
    counts = np.concatenate([np.diff(o) for o in offsets])
    return Fibers(np.concatenate(pts), np.concatenate(infs), np.concatenate(mult),
                  np.concatenate([[0], np.cumsum(counts)]), rmap.degree)


@dataclass
class TreeLevel:
    """One level of a preimage tree as parallel arrays."""

    points: np.ndarray           # complex128
    infinite: np.ndarray         # bool
    cum: np.ndarray              # int64 running branch-index products
    parent: np.ndarray           # int64 index into the previous level (-1 at root)

    @property
    def size(self) -> int:
        return self.points.size

    def atom(self, i: int) -> SpherePoint:
        return INFINITY if self.infinite[i] else SpherePoint(complex(self.points[i]))


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

    def level(self, k: int) -> TreeLevel:
        return self.levels[k]

    def atom_count(self, k: int) -> int:
        return self.levels[k].size

    def level_atoms(self, k: int) -> list[tuple[SpherePoint, int]]:
        lvl = self.levels[k]
        return [(lvl.atom(i), int(lvl.cum[i])) for i in range(lvl.size)]

    def to_csv(self, path) -> None:
        """One row per atom: level, re, im, cumulative_mult, parent_index."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["level", "re", "im", "cumulative_mult", "parent_index"])
            for k, lvl in enumerate(self.levels):
                for i in range(lvl.size):
                    if lvl.infinite[i]:
                        re, im = "inf", "inf"
                    else:
                        re = repr(float(lvl.points[i].real))
                        im = repr(float(lvl.points[i].imag))
                    writer.writerow([k, re, im, int(lvl.cum[i]), int(lvl.parent[i])])


def _root_level(w: SpherePoint) -> TreeLevel:
    return TreeLevel(
        points=np.array([w.value], dtype=complex),
        infinite=np.array([w.infinite]),
        cum=np.array([1], dtype=np.int64),
        parent=np.array([-1], dtype=np.int64),
    )


def _sorted_level(points, infinite, cum, parent) -> TreeLevel:
    order = np.lexsort((points.imag, points.real, infinite))
    return TreeLevel(points[order], infinite[order], cum[order], parent[order])


def _grow(rmap: RationalMap, root: SpherePoint, m: int, branches: int,
          budget: int, rng=None) -> PreimageTree:
    """The one level loop behind both tree builders.

    Each level solves the fibers of all its atoms into one flat table.  A
    child's count is its branch index when ``branches`` equals the degree;
    otherwise each node draws ``branches`` of its ``degree`` fiber slots
    from ``rng`` without replacement, in node order, and a child's count is
    its number of draws.
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
    tree = PreimageTree(map=rmap, root=root, depth=m, weight_base=branches,
                        levels=[_root_level(root)])
    for _ in range(m):
        prev = tree.levels[-1]
        fib = gather_fibers(rmap, prev.points, prev.infinite)
        parent = np.repeat(np.arange(prev.size), np.diff(fib.offsets))
        counts = fib.mult
        if branches < n:
            # Each fiber's multiplicities sum to n, so node j owns the fiber
            # slots n*j .. n*j + n - 1; a child fills branch-index many.
            slots = np.repeat(np.arange(parent.size), fib.mult)
            draws = np.concatenate([n * j + rng.permutation(n)[:branches]
                                    for j in range(prev.size)])
            counts = np.bincount(slots[draws], minlength=parent.size)
        keep = counts > 0
        tree.levels.append(_sorted_level(
            fib.points[keep], fib.inf_mask[keep],
            counts[keep] * prev.cum[parent[keep]], parent[keep]))
    return tree


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
