"""Countable bases for the function bimodule over the Julia set.

A basis is one :class:`PartitionOfUnity`, whose ordered elements are the
square roots of a partition of unity subordinate to supports on which the
map is injective: smooth radial bumps centered on a greedy net of a
Julia-set sample, normalized so the squares sum to the map degree on the
sample.  Around each branch point that meets the Julia set, the net is
replaced by ladders of shrinking annular sector bumps whose supports
separate the local branches; supports shrink toward branch points with
increasing element index, which gives every function vanishing near the
branch points a finite tail of disjoint elements.  A partial sum takes
the first N elements, N a count.

Reconstruction at the branch points themselves is reported by the
verification harness, not asserted; everywhere else the normalization
makes the reconstruction identity hold to roundoff.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverFailure, DegenerateSample
from .preimage_solver import PointSet, sampled_tree
from .rational_map import RationalMap, critical_points
from .sphere import (_OVERFLOW, INFINITY, SpherePoint, _chordal, _same_bits, as_point,
                     atom_order, chordal, chordal_pairs, half_norm, point_json, sphere_points,
                     write_csv)
from .test_functions import TestFunction

_SECTOR_GAP = 0.1            # radians removed from each sector's full width
_SUPPORT_FACTOR = 1.3        # bump support radius over net radius
_SECTOR_LADDER_CAP = 16
# The exponent e of every bump's profile max(1 - t^2, 0)^e.
_PROFILE = 2
# Branches kept per node of the tree a Julia sample reads.
_SAMPLE_BRANCHES = 2
# Entries of one row block of the distance table in ``_median_spacing``.  The first block's 1 MB
# temporaries set glibc's mmap threshold for the rest of a suite: at 1 << 14, a warm basilica m=9
# suite took 3093 minor faults instead of about 2, and 40.7 ms instead of 30.8 (verify_dense).
_SPACING_BLOCK = 1 << 16
# Bytes of a bump table's complex temporaries, the (bumps, points)
# differences between the bump centres and a block of points; its float
# tables stay at half that, at glibc's 128 KiB mmap threshold.
_TABLE_BYTES = 1 << 18


@dataclass(eq=False)
class JuliaSample(PointSet):
    """Deterministic sample of the Julia set from deep preimage atoms.

    The sample owns what is derived from its points, each computed once,
    when first read: what every :class:`PointSet` owns (the fibers over
    the points and over their images, and each basis's cover table),
    their half norms, their greedy net, their distances to the critical
    points and the branch points.  Arrays it keeps are read-only.
    """

    map: RationalMap
    points: np.ndarray
    inf_mask: np.ndarray
    method: str
    seed: int

    def sphere_points(self) -> list[SpherePoint]:
        return sphere_points(self.points, self.inf_mask)

    def to_csv(self, path) -> None:
        """Columns re, im."""
        write_csv(path, ["re", "im"], [([], self.points, self.inf_mask, [])])

    @cached_property
    def half_norms(self) -> np.ndarray:
        """:func:`~lyubich_lab.sphere.half_norm` of each sample point, which
        every distance table of the sample reads."""
        norms = half_norm(self.points)
        norms.setflags(write=False)
        return norms

    @cached_property
    def net(self) -> "_Net":
        """The greedy farthest-point net over the sample, grown as reads
        need it: the net of :func:`net_radius` and, where the basis pool
        is the whole sample, of :func:`build_basis`."""
        return _Net(self.points, self.inf_mask, self.half_norms)

    @cached_property
    def critical_distances(self) -> np.ndarray:
        """The chordal distances from each critical point of the map (one
        row each, in ``critical_points`` order) to each sample point."""
        crit = _columns([d.point for d in critical_points(self.map)])
        table = _chordal(self.points, self.inf_mask, self.half_norms, *crit)
        table.setflags(write=False)
        return table

    @cached_property
    def _branch_rows(self) -> np.ndarray:
        """The rows of ``critical_distances`` whose critical point meets the
        sample: lies within 6x the median spacing of it, or within 1e-3."""
        if self.size < 2:
            return np.zeros(0, dtype=np.intp)
        # The sample concentrates where the balanced measure does, so local
        # gaps can be several times the median spacing (e.g. the arcsine law
        # is sparse mid-interval); 6x keeps on-set critical points detected.
        threshold = max(6.0 * _median_spacing(self), 1e-3)
        return np.flatnonzero(self.critical_distances.min(axis=1) <= threshold)

    @property
    def branch_points(self) -> list:
        """The critical points that meet the sample."""
        crit = critical_points(self.map)
        return [crit[i] for i in self._branch_rows]

    @property
    def branch_distances(self) -> np.ndarray:
        """The rows of ``critical_distances`` of ``branch_points``."""
        return self.critical_distances[self._branch_rows]


def _check_sample(rmap: RationalMap, sample: JuliaSample) -> None:
    if sample.map is not rmap:
        raise ValueError("the sample belongs to another map")


def julia_sample(rmap: RationalMap, size: int, seed: int) -> JuliaSample:
    """Sample the Julia set via the deepest level of a sampled preimage tree.

    Backward orbits of any non-exceptional point accumulate on the Julia
    set; depth >= 12 puts the atoms within sampling tolerance of it, and
    the depth is the larger of 12 and ceil(log2 size) + 2.  The tree keeps
    two branches per node from the default root, so for a map of degree 2
    it is the enumerated tree.  Deterministic for a given seed; at
    most ``size`` points, deduplicated and sorted.
    """
    return _julia_samples(rmap, (size,), seed)[0]


def _sample_depth(size: int) -> int:
    """The depth of the tree level a Julia sample of ``size`` points reads."""
    return max(12, int(math.ceil(math.log2(max(size, 2)))) + 2)


def _samples_read_enumerated_tree(rmap: RationalMap, w: SpherePoint) -> bool:
    """Whether the tree the Julia samples read is the map's enumerated
    tree rooted at w: it keeps every branch, since the map's degree is
    ``_SAMPLE_BRANCHES``, and w is the default root to the bit."""
    from .lyubich_measure import default_root

    return rmap.degree == _SAMPLE_BRANCHES and _same_bits(w, default_root(rmap))


def _julia_samples(rmap: RationalMap, sizes, seed: int, tree=None) -> list[JuliaSample]:
    """:func:`julia_sample` for each of ``sizes``; sizes that pick the same
    depth read one sampled tree.

    A sampled tree that keeps every branch is the enumerated tree
    (:func:`~lyubich_lab.preimage_solver.sampled_tree`), so where
    :func:`_samples_read_enumerated_tree` holds, a caller may pass
    ``tree``, that tree at least as deep as every size's depth, and each
    sample reads its level of it instead.
    """
    from .lyubich_measure import default_root

    if min(sizes) < 1:
        raise DegenerateSample("sample size must be positive")
    depths = [_sample_depth(size) for size in sizes]
    root = default_root(rmap)
    levels = {}
    for d in sorted(set(depths)):
        source = tree if tree is not None else sampled_tree(
            rmap, root, d, branches_per_node=_SAMPLE_BRANCHES, seed=seed)
        levels[d] = source.level(d)
    return [_thin(rmap, levels[d], size, d, seed) for size, d in zip(sizes, depths)]


def _thin(rmap: RationalMap, lvl, size: int, depth: int, seed: int) -> JuliaSample:
    """The distinct atoms of a tree level, sorted, thinned evenly to ``size``."""
    order = atom_order(lvl.points, lvl.inf_mask)
    pts = lvl.points[order]
    infs = lvl.inf_mask[order]
    # Drop each entry equal to the one before it (every infinity after the first).
    keep = np.ones(pts.size, dtype=bool)
    keep[1:] = (infs[1:] != infs[:-1]) | (~infs[1:] & (pts[1:] != pts[:-1]))
    pts, infs = pts[keep], infs[keep]

    if pts.size > size:
        idx = np.unique(np.round(np.linspace(0, pts.size - 1, size)).astype(int))
        pts, infs = pts[idx], infs[idx]

    method = f"sampled-tree(depth={depth},branches={_SAMPLE_BRANCHES})"
    return JuliaSample(map=rmap, points=pts, inf_mask=infs, method=method, seed=seed)


# ----------------------------------------------------------------------
# separation radius


def branch_separation_radius(rmap: RationalMap, sample: JuliaSample) -> float:
    """Largest r such that every sample point farther than 2r from all
    critical points has pairwise fiber gaps above 4r (bisection).

    Guarantees that a bump of support diameter below 2r centered away from
    the critical points meets each fiber in at most one atom.
    """
    _check_sample(rmap, sample)
    if sample.size < 2:
        raise DegenerateSample("need at least two sample points")
    dist_crit = sample.critical_distances.min(axis=0, initial=np.inf)

    # Every pair (a, b), a < b, of atoms within one fiber of the sample.
    fib = sample.sibling_fibers
    size = np.diff(fib.offsets)
    i, j = np.triu_indices(size.max(initial=0), 1)
    fiber, pair = np.nonzero(j < size[:, None])
    a, b = fib.offsets[fiber] + i[pair], fib.offsets[fiber] + j[pair]
    min_gap = np.full(size.size, np.inf)
    np.minimum.at(min_gap, fiber, chordal_pairs(fib.points[a], fib.inf_mask[a],
                                                fib.points[b], fib.inf_mask[b]))

    def ok(r: float) -> bool:
        included = dist_crit > 2 * r
        if not included.any():
            return False
        return bool(np.all(min_gap[included] > 4 * r))

    lo, hi = 0.0, 1.0
    if not ok(1e-9):
        raise DegenerateSample("no positive separation radius on this sample")
    lo = 1e-9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# bumps and the partition


@dataclass(frozen=True)
class SectorSpec:
    """Angular sector data for bumps near a branch point."""

    axis: float          # direction of the sector center in the local chart
    halfwidth: float     # angular half-extent
    r_inner: float       # annulus bounds in the chordal metric
    r_outer: float


@dataclass(frozen=True)
class _RawBump:
    center: SpherePoint
    radius: float        # support radius (outer radius for sectors)
    sector: SectorSpec | None = None


def _columns(points: list) -> tuple:
    """The values, infinity flags and half norms of sphere points as
    (k, 1) columns, to broadcast against a point array in :func:`_chordal`;
    each norm by the scalar rule, as for a single point."""
    values = np.array([p.value for p in points], dtype=complex).reshape(-1, 1)
    inf = np.array([p.infinite for p in points], dtype=bool).reshape(-1, 1)
    return values, inf, _column([half_norm(p.value) for p in points])


def _column(values: list) -> np.ndarray:
    return np.array(values, dtype=float).reshape(-1, 1)


def _profile(t: np.ndarray) -> np.ndarray:
    """max(1 - t^2, 0) ** _PROFILE."""
    return np.clip(1.0 - t * t, 0.0, None) ** _PROFILE


class PartitionOfUnity:
    """A basis: raw bumps plus the degree scaling.

    Element i is ``bumps[i]`` normalized, row i of :meth:`member_matrix`:
    sqrt(degree * raw_i / sum(raw)), which makes the squares sum to the
    degree exactly wherever any bump is positive.  ``len`` is the element
    count, and a partial sum over the first N elements takes the count N.

    The bumps are evaluated as one table per block of ``block`` points:
    the chordal distances d from every centre to the block's points, whose
    half norms are taken once per block; then the radial profile
    (1 - t^2)^``_PROFILE``, clipped at 0, of every row with t = (d - mid) / half,
    where a net bump has mid 0 and half its radius, so t = d / radius, and
    a sector the middle and half width of its annulus; then, on the sector
    rows only, the angular profile of the same form.  Every value of a
    point depends on that point alone, so any block size gives the same
    bits.
    """

    def __init__(self, degree: int, bumps: list):
        self.degree = degree
        self.bumps = bumps
        self._centres = _columns([b.center for b in bumps])
        self._radii = np.array([b.radius for b in bumps], dtype=float)
        self._mid = _column([0.0 if b.sector is None else
                             0.5 * (b.sector.r_inner + b.sector.r_outer) for b in bumps])
        self._half = _column([b.radius if b.sector is None else
                              0.5 * (b.sector.r_outer - b.sector.r_inner) for b in bumps])
        self._sectors = np.flatnonzero([b.sector is not None for b in bumps])
        sectors = [bumps[i] for i in self._sectors]
        self._sector_centres = self._centres[0][self._sectors]
        self._sector_at_infinity = np.array([b.center.infinite for b in sectors], dtype=bool)
        self._axis = _column([b.sector.axis for b in sectors])
        self._halfwidth = _column([b.sector.halfwidth for b in sectors])

    def __len__(self) -> int:
        return len(self.bumps)

    @property
    def block(self) -> int:
        """The points per table: the table's complex temporaries stay
        within ``_TABLE_BYTES``."""
        return max(1, _TABLE_BYTES // (16 * max(len(self), 1)))

    def raw_matrix(self, points, inf_mask=None) -> np.ndarray:
        """The raw bumps at the points, one row per bump, filled block by
        block."""
        points = np.asarray(points, dtype=complex)
        if inf_mask is None:
            inf_mask = np.zeros(points.shape, dtype=bool)
        z, z_inf = points.ravel(), np.broadcast_to(inf_mask, points.shape).ravel()
        raw = np.empty((len(self), z.size))
        step = self.block
        for s in range(0, z.size, step):
            raw[:, s:s + step] = self._table(z[s:s + step], z_inf[s:s + step])
        return raw.reshape((len(self),) + points.shape)

    def _table(self, z: np.ndarray, z_inf: np.ndarray) -> np.ndarray:
        """The (bumps, points) raw table of one block of points."""
        d = _chordal(z, z_inf, half_norm(z), *self._centres)
        raw = _profile((d - self._mid) / self._half)
        if self._sectors.size:
            local = z - self._sector_centres
            if self._sector_at_infinity.any():
                # About infinity the chart is 1/z.
                with np.errstate(divide="ignore", invalid="ignore"):
                    local[self._sector_at_infinity] = np.where(z == 0, np.inf, 1.0 / z)
            diff = np.angle(np.exp(1j * (np.angle(local) - self._axis)))
            angular = _profile(diff / self._halfwidth)
            raw[self._sectors] *= np.where(z_inf, 0.0, angular)
        return raw

    def member_matrix(self, points, inf_mask=None) -> np.ndarray:
        raw = self.raw_matrix(points, inf_mask)
        # Row by row: numpy sums a single column pairwise, so a point's
        # total would depend on how many points share the call.
        total = np.zeros(raw.shape[1:])
        for row in raw:
            total += row
        safe = np.where(total > 0.0, total, 1.0)
        members = np.sqrt(self.degree * raw / safe)
        members[:, total <= 0.0] = 0.0
        return members


def basis_to_json(basis: PartitionOfUnity, path=None) -> str:
    """Export as JSON: list of {center, radius, profile, scale, sector?},
    one record per element."""
    records = []
    for bump in basis.bumps:
        rec = {
            "center": point_json(bump.center),
            "radius": bump.radius,
            "profile": _PROFILE,
            "scale": math.sqrt(basis.degree),
        }
        if bump.sector is not None:
            s = bump.sector
            rec["sector"] = {"axis": s.axis, "halfwidth": s.halfwidth,
                             "r_inner": s.r_inner, "r_outer": s.r_outer}
        records.append(rec)
    text = json.dumps(records, indent=2)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


# ----------------------------------------------------------------------
# net construction


class _Net:
    """The greedy farthest-point net of a point set, grown only as far as
    a read needs: its centres in insertion order and the cover radius of
    each prefix.  Each centre is the farthest point from the ones before
    it, so a prefix is the net that a fresh run stopping there chooses."""

    def __init__(self, points: np.ndarray, inf_mask: np.ndarray, norms: np.ndarray):
        self._points, self._inf_mask, self._norms = points, inf_mask, norms
        self.chosen: list[int] = []
        self.radii: list[float] = []
        self._cover = None
        if points.size:
            self._add(0)

    def _add(self, i: int) -> None:
        c = INFINITY if self._inf_mask[i] else SpherePoint(complex(self._points[i]))
        d = _chordal(self._points, self._inf_mask, self._norms,
                     c.value, c.infinite, half_norm(c.value))
        self._cover = d if self._cover is None else np.minimum(self._cover, d)
        self.chosen.append(i)
        self.radii.append(float(self._cover.max()))

    def take(self, radius: float | None = None,
             count: int | None = None) -> tuple[list[int], float]:
        """The first prefix whose cover radius is at most ``radius``, or
        that has ``count`` centres, or every point, whichever comes first,
        grown as far as needed; and its cover radius."""
        if not self.chosen:
            return [], 0.0
        n = 1
        while not ((radius is not None and self.radii[n - 1] <= radius)
                   or (count is not None and n >= count) or n >= self._points.size):
            n += 1
            if n > len(self.chosen):
                self._add(int(self._cover.argmax()))
        return self.chosen[:n], self.radii[n - 1]


def net_radius(sample: JuliaSample, count: int) -> float:
    """Coverage radius of the greedy net with exactly ``count`` centers,
    read from the sample's own net (:attr:`JuliaSample.net`)."""
    return sample.net.take(count=count)[1]


def branch_points_on_julia(rmap: RationalMap, sample: JuliaSample) -> list:
    """Critical points that meet the sampled Julia set, as the sample
    finds them once (:attr:`JuliaSample.branch_points`)."""
    _check_sample(rmap, sample)
    return sample.branch_points


def _median_spacing(sample: JuliaSample) -> float:
    """The median over the sample of the chordal distance from a point to
    its nearest other point.

    The table is taken in row blocks of at most ``_SPACING_BLOCK`` entries,
    each block's rows against its own and every later point, so a pair
    outside a block's own square is taken once and feeds the nearest
    distances of both its points.  The chordal rule is symmetric to the
    bit except on pairs whose half norms' product passes
    ``sphere._OVERFLOW``, which it divides by each norm in turn; a finite
    point that can be in such a pair takes its nearest distance from its
    row block of the whole table, as a row of that table reads it.
    """
    pts, infs, norms = sample.points, sample.inf_mask, sample.half_norms
    size = sample.size
    nearest = np.full(size, np.inf)
    start = 0
    while start < size:
        stop = start + max(1, _SPACING_BLOCK // (size - start))
        d = _chordal(pts[start:], infs[start:], norms[start:],
                     pts[start:stop, None], infs[start:stop, None], norms[start:stop, None])
        rows = np.arange(d.shape[0])
        d[rows, rows] = np.inf
        np.minimum(nearest[start:stop], d.min(axis=1), out=nearest[start:stop])
        np.minimum(nearest[stop:], d[:, rows.size:].min(axis=0), out=nearest[stop:])
        start = stop

    with np.errstate(over="ignore"):
        risky = np.flatnonzero(~infs & (norms * norms[~infs].max(initial=0.0) > _OVERFLOW))
    block = max(1, _SPACING_BLOCK // max(size, 1))
    for start in np.unique(risky // block) * block:
        at = slice(start, start + block)
        d = _chordal(pts, infs, norms, pts[at, None], infs[at, None], norms[at, None])
        rows = np.arange(d.shape[0])
        d[rows, start + rows] = np.inf
        nearest[at] = d.min(axis=1)
    return float(np.median(nearest))


def build_basis(rmap: RationalMap, sample: JuliaSample, r: float,
                count_cap: int = 256) -> PartitionOfUnity:
    """Basis from a greedy r-net of the sample plus branch-point sectors.

    Net bumps have support radius 1.3 r; callers should keep
    2.6 r below the branch separation radius so that the map stays
    injective on each support.  Elements away from branch points come
    first; sector ladders shrink toward each branch point with increasing
    index.  Raises CoverFailure when the net cannot cover the sample at
    radius r within the element cap, or when normalization would divide
    by zero away from the branch points.
    """
    if r <= 0:
        raise ValueError("net radius must be positive")
    if count_cap < 1:
        raise ValueError(f"a basis needs count_cap >= 1, got {count_cap}")
    n = rmap.degree
    pts, infs = sample.points, sample.inf_mask
    branch = branch_points_on_julia(rmap, sample)
    near = sample.branch_distances
    rho0 = 4.0 * r

    pool_idx = np.flatnonzero(np.all(near > rho0, axis=0))
    if pool_idx.size == 0 and not branch:
        raise CoverFailure("empty sample")

    # A pool of the whole sample continues the sample's own net.
    net = (sample.net if pool_idx.size == sample.size
           else _Net(pts[pool_idx], infs[pool_idx], half_norm(pts[pool_idx])))
    chosen, cover = net.take(radius=r, count=count_cap)
    if cover > r:
        raise CoverFailure(
            f"net of {len(chosen)} centers covers the sample only to radius "
            f"{cover:.3g} > {r:.3g}")

    centers = pool_idx[chosen]
    net_bumps = [_RawBump(center=sample.atom(i), radius=_SUPPORT_FACTOR * r) for i in centers]
    if branch:
        # Farthest from the branch points first.
        clearance = near[:, centers].min(axis=0)
        order = sorted(range(len(net_bumps)),
                       key=lambda j: (-clearance[j], net_bumps[j].center.sort_key()))
        net_bumps = [net_bumps[j] for j in order]

    sector_bumps = []
    for datum, dists in sorted(zip(branch, near), key=lambda pair: pair[0].point.sort_key()):
        positive = dists[dists > 1e-12]
        d_plus = float(positive.min()) if positive.size else rho0 / 4
        levels = 1
        while rho0 * 2.0 ** (-(levels - 1)) / 4.0 > d_plus and levels < _SECTOR_LADDER_CAP:
            levels += 1
        e = datum.index
        halfwidth = 0.5 * (2.0 * math.pi / e - _SECTOR_GAP)
        for j in range(levels):
            rho = rho0 * 2.0 ** (-j)
            for k in range(e):
                spec = SectorSpec(axis=2.0 * math.pi * k / e,
                                  halfwidth=halfwidth,
                                  r_inner=rho / 4.0, r_outer=rho)
                sector_bumps.append(_RawBump(center=datum.point, radius=rho, sector=spec))

    bumps = net_bumps + sector_bumps
    if len(bumps) > count_cap:
        raise CoverFailure(
            f"{len(bumps)} elements exceed the cap {count_cap}; "
            "increase the cap or the net radius")

    partition = PartitionOfUnity(n, bumps)
    total = partition.raw_matrix(pts, infs).sum(axis=0)
    uncovered = np.flatnonzero((total <= 0.0) & (near.min(axis=0, initial=np.inf) > 1e-9))
    if uncovered.size:
        p = sample.atom(uncovered[0])
        raise CoverFailure(f"sample point {p!r} is not covered by any bump")
    return partition


# ----------------------------------------------------------------------
# vanishing functions and reconstruction


@dataclass(frozen=True)
class VanishingFunction:
    """A function certified to vanish near the branch points.

    Carries the support geometry (center and radius of a chordal ball),
    so the vanishing-tail index can be determined geometrically.
    """

    fn: TestFunction
    support_center: SpherePoint
    support_radius: float

    @staticmethod
    def bump(rmap: RationalMap, center, radius: float,
             branch_points=None, sample: JuliaSample | None = None) -> "VanishingFunction":
        """A radial bump with certified clearance from the branch points."""
        c = as_point(center)
        if branch_points is None:
            if sample is not None:
                branch_points = [d.point for d in branch_points_on_julia(rmap, sample)]
            else:
                branch_points = [d.point for d in critical_points(rmap)]
        for bp in branch_points:
            if chordal(c, bp) <= radius:
                raise ValueError(
                    f"support of the bump meets the branch point {bp!r}")

        def profile(points, inf_mask):
            d = chordal_pairs(points, inf_mask, c.value, c.infinite)
            t = d / radius
            return np.clip(1.0 - t * t, 0.0, None) ** 2

        fn = TestFunction.from_callable(profile, name=f"bump({c!r},{radius})")
        return VanishingFunction(fn=fn, support_center=c, support_radius=radius)

    def meets_elements(self, basis: PartitionOfUnity) -> np.ndarray:
        """Whether the support meets each element's: one row of chordal
        distances from the support centre to the basis's centre column,
        whose half norms keep the scalar rule, so each answer is that of
        the scalar chordal distance."""
        if self.support_radius <= 0.0 or not basis:
            return np.zeros(len(basis), dtype=bool)
        c = self.support_center
        values, inf, norms = (column[:, 0] for column in basis._centres)
        gaps = _chordal(c.value, c.infinite, half_norm(c.value), values, inf, norms)
        return gaps < self.support_radius + basis._radii


def reconstruction_sum(points: PointSet, basis: PartitionOfUnity, f: TestFunction,
                       count: int) -> np.ndarray:
    """sum_i u_i * L(u_i * f) at each of ``points`` over the first ``count``
    elements of ``basis``, read from what the point set owns: its cover of
    the basis, its sibling fibers (the fibers of the points' images), their
    cover, and f on their power table.  Bumps are real, so the conjugate in
    the inner product is a no-op.

    Each layer of the cover adds, at each point, the term of one element
    nonzero there, so a point's terms come in ascending element order.  The
    sum over every element adds the same terms in the same order, and
    besides them only the terms of elements that vanish at the point,
    which are 0 or -0 wherever L(u_i * f) is finite; so every finite sum
    has the bits of the sum over every element.
    """
    cover, fib = points.cover(basis), points.sibling_fibers
    fiber_cover, values = fib.cover(basis), f.evaluate(fib.powers)
    segment = np.repeat(np.arange(points.size), np.diff(fib.offsets))
    total = np.zeros(points.size, dtype=complex)
    for members, u in zip(cover.index, cover.values(count)):
        u_fiber = fiber_cover.member(members[segment])
        total = total + u * fib.average(u_fiber * values)
    return total


def reconstruct(rmap: RationalMap, basis: PartitionOfUnity, xi: TestFunction, N: int,
                sample: JuliaSample) -> tuple[np.ndarray, float]:
    """Partial reconstruction sum over the first N elements at the sample's
    points, as a complex array (zeros for N <= 0), and its sup-norm gap to
    xi over the sample.

    Each term is element * (inner product of element with xi, composed
    with the map).
    """
    _check_sample(rmap, sample)
    recon = (reconstruction_sum(sample, basis, xi, min(N, len(basis))) if N > 0
             else np.zeros(sample.size, dtype=complex))
    gap = np.abs(recon - xi.evaluate(sample.powers))
    return recon, float(np.max(gap)) if sample.size else 0.0
