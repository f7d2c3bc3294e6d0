"""Countable bases for the function bimodule over the Julia set.

Elements are square roots of a partition of unity subordinate to supports
on which the map is injective: smooth radial bumps centered on a greedy
net of a Julia-set sample, normalized so the squares sum to the map degree
on the sample.  Around each branch point that meets the Julia set, the net
is replaced by ladders of shrinking annular sector bumps whose supports
separate the local branches; supports shrink toward branch points with
increasing element index, which gives every function vanishing near the
branch points a finite tail of disjoint elements.

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
from .preimage_solver import Cover, Fibers, PointSet, sampled_tree
from .rational_map import RationalMap, critical_points
from .sphere import (INFINITY, SpherePoint, _chordal, as_point, atom_order, chordal, chordal_pairs,
                     half_norm, sphere_points, write_csv)
from .test_functions import TestFunction

_SECTOR_GAP = 0.1            # radians removed from each sector's full width
_SUPPORT_FACTOR = 1.3        # bump support radius over net radius
_SECTOR_LADDER_CAP = 16
# Entries of one row block of the distance matrix in ``_median_spacing``.
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
    the points and over their images, and each partition's cover table),
    their half norms, their distances to the critical points and the
    branch points.  Arrays it keeps are read-only.
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
    the depth is the larger of 12 and ceil(log2 size) + 2.
    Deterministic for a given seed; at most ``size`` points, deduplicated
    and sorted.
    """
    return _julia_samples(rmap, (size,), seed)[0]


def _julia_samples(rmap: RationalMap, sizes, seed: int) -> list[JuliaSample]:
    """:func:`julia_sample` for each of ``sizes``; sizes that pick the same
    depth read one sampled tree."""
    from .lyubich_measure import default_root

    if min(sizes) < 1:
        raise DegenerateSample("sample size must be positive")
    depths = [max(12, int(math.ceil(math.log2(max(size, 2)))) + 2) for size in sizes]
    root = default_root(rmap)
    levels = {d: sampled_tree(rmap, root, d, branches_per_node=2, seed=seed).level(d)
              for d in sorted(set(depths))}
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

    return JuliaSample(map=rmap, points=pts, inf_mask=infs,
                       method=f"sampled-tree(depth={depth},branches=2)", seed=seed)


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
# bumps and the shared partition


@dataclass(frozen=True)
class SectorSpec:
    """Angular sector data for elements near a branch point."""

    axis: float          # direction of the sector center in the local chart
    halfwidth: float     # angular half-extent
    r_inner: float       # annulus bounds in the chordal metric
    r_outer: float


@dataclass(frozen=True)
class _RawBump:
    center: SpherePoint
    radius: float        # support radius (outer radius for sectors)
    exponent: int
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


def _profile(t: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """max(1 - t^2, 0) ** exponents[i] on row i of ``t``."""
    base = np.clip(1.0 - t * t, 0.0, None)
    kinds = np.unique(exponents)
    if kinds.size == 1:
        return base ** int(kinds[0])
    for e in kinds:
        rows = exponents == e
        base[rows] = base[rows] ** int(e)
    return base


class PartitionOfUnity:
    """Shared normalizer: raw bumps plus the degree scaling.

    Member i evaluates to sqrt(degree * raw_i / sum(raw)), which makes the
    squares sum to the degree exactly wherever any bump is positive.

    The bumps are evaluated as one table per block of ``block`` points:
    the chordal distances d from every centre to the block's points, whose
    half norms are taken once per block; then the radial profile
    (1 - t^2)^exponent, clipped at 0, of every row with t = (d - mid) / half,
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
        self._exponents = np.array([b.exponent for b in bumps], dtype=int)
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

    @property
    def block(self) -> int:
        """The points per table: the table's complex temporaries stay
        within ``_TABLE_BYTES``."""
        return max(1, _TABLE_BYTES // (16 * max(len(self.bumps), 1)))

    def raw_matrix(self, points, inf_mask=None) -> np.ndarray:
        """The raw bumps at the points, one row per bump, filled block by
        block."""
        points = np.asarray(points, dtype=complex)
        if inf_mask is None:
            inf_mask = np.zeros(points.shape, dtype=bool)
        z, z_inf = points.ravel(), np.broadcast_to(inf_mask, points.shape).ravel()
        raw = np.empty((len(self.bumps), z.size))
        step = self.block
        for s in range(0, z.size, step):
            raw[:, s:s + step] = self._table(z[s:s + step], z_inf[s:s + step])
        return raw.reshape((len(self.bumps),) + points.shape)

    def _table(self, z: np.ndarray, z_inf: np.ndarray) -> np.ndarray:
        """The (bumps, points) raw table of one block of points."""
        d = _chordal(z, z_inf, half_norm(z), *self._centres)
        raw = _profile((d - self._mid) / self._half, self._exponents)
        if self._sectors.size:
            local = z - self._sector_centres
            if self._sector_at_infinity.any():
                # About infinity the chart is 1/z.
                with np.errstate(divide="ignore", invalid="ignore"):
                    local[self._sector_at_infinity] = np.where(z == 0, np.inf, 1.0 / z)
            diff = np.angle(np.exp(1j * (np.angle(local) - self._axis)))
            angular = _profile(diff / self._halfwidth, self._exponents[self._sectors])
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


@dataclass(frozen=True)
class BasisElement:
    """One element: a normalized bump, evaluable everywhere."""

    index: int
    bump: _RawBump
    partition: PartitionOfUnity

    @property
    def center(self) -> SpherePoint:
        return self.bump.center

    @property
    def support_radius(self) -> float:
        return self.bump.radius

    @property
    def is_sector(self) -> bool:
        return self.bump.sector is not None

    @property
    def scale(self) -> float:
        return math.sqrt(self.partition.degree)

    def evaluate(self, points, inf_mask=None) -> np.ndarray:
        return self.partition.member_matrix(points, inf_mask)[self.index]

    def function(self) -> TestFunction:
        return TestFunction.from_callable(self.evaluate, name=f"u{self.index}")


def basis_to_json(basis: list, path=None) -> str:
    """Export as JSON: list of {center, radius, profile, scale, sector?}."""
    records = []
    for el in basis:
        rec = {
            "center": "inf" if el.center.infinite else
                      [el.center.value.real, el.center.value.imag],
            "radius": el.support_radius,
            "profile": el.bump.exponent,
            "scale": el.scale,
        }
        if el.is_sector:
            s = el.bump.sector
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


def farthest_point_net(points: np.ndarray, inf_mask: np.ndarray,
                       radius: float | None = None,
                       count: int | None = None) -> tuple[list[int], float]:
    """Greedy farthest-point net over a point set.

    Stops when the coverage radius drops to ``radius`` or when ``count``
    centers have been chosen, whichever comes first.  Returns the chosen
    indices (in insertion order) and the final coverage radius.  The
    points' half norms are taken once, and each new center's distances
    read them.
    """
    m = points.size
    if m == 0:
        return [], 0.0
    norms = half_norm(points)

    def distances(i: int) -> np.ndarray:
        c = INFINITY if inf_mask[i] else SpherePoint(complex(points[i]))
        return _chordal(points, inf_mask, norms, c.value, c.infinite, half_norm(c.value))

    chosen = [0]
    cover = distances(0)
    while True:
        worst = float(cover.max())
        if radius is not None and worst <= radius:
            break
        if count is not None and len(chosen) >= count:
            break
        if len(chosen) >= m:
            break
        nxt = int(cover.argmax())
        chosen.append(nxt)
        cover = np.minimum(cover, distances(nxt))
    return chosen, float(cover.max())


def net_radius(sample: JuliaSample, count: int) -> float:
    """Coverage radius of the greedy net with exactly ``count`` centers."""
    _, cover = farthest_point_net(sample.points, sample.inf_mask, count=count)
    return cover


def branch_points_on_julia(rmap: RationalMap, sample: JuliaSample) -> list:
    """Critical points that meet the sampled Julia set, as the sample
    finds them once (:attr:`JuliaSample.branch_points`)."""
    _check_sample(rmap, sample)
    return sample.branch_points


def _median_spacing(sample: JuliaSample) -> float:
    """The median over the sample of the chordal distance from a point to
    its nearest other point, taken row block by row block of the distance
    matrix."""
    pts, infs, norms = sample.points, sample.inf_mask, sample.half_norms
    nearest = np.empty(sample.size)
    block = max(1, _SPACING_BLOCK // max(sample.size, 1))
    for start in range(0, sample.size, block):
        at = slice(start, start + block)
        d = _chordal(pts, infs, norms, pts[at, None], infs[at, None], norms[at, None])
        rows = np.arange(d.shape[0])
        d[rows, start + rows] = np.inf
        nearest[at] = d.min(axis=1)
    return float(np.median(nearest))


def build_basis(rmap: RationalMap, sample: JuliaSample, r: float,
                count_cap: int = 256) -> list:
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
    n = rmap.degree
    pts, infs = sample.points, sample.inf_mask
    branch = branch_points_on_julia(rmap, sample)
    near = sample.branch_distances
    rho0 = 4.0 * r

    pool_idx = np.flatnonzero(np.all(near > rho0, axis=0))
    if pool_idx.size == 0 and not branch:
        raise CoverFailure("empty sample")

    chosen, cover = farthest_point_net(pts[pool_idx], infs[pool_idx],
                                       radius=r, count=count_cap)
    if cover > r:
        raise CoverFailure(
            f"net of {len(chosen)} centers covers the sample only to radius "
            f"{cover:.3g} > {r:.3g}")

    centers = pool_idx[chosen]
    net_bumps = [_RawBump(center=sample.atom(i), radius=_SUPPORT_FACTOR * r, exponent=2)
                 for i in centers]
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
                sector_bumps.append(_RawBump(center=datum.point, radius=rho,
                                             exponent=2, sector=spec))

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

    return [BasisElement(index=i, bump=b, partition=partition)
            for i, b in enumerate(bumps)]


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

    @staticmethod
    def zero() -> "VanishingFunction":
        fn = TestFunction.constant(0.0, name="0")
        return VanishingFunction(fn=fn, support_center=SpherePoint(0j), support_radius=0.0)

    def meets(self, element: BasisElement) -> bool:
        if self.support_radius <= 0.0:
            return False
        gap = chordal(self.support_center, element.center)
        return gap < self.support_radius + element.support_radius


def reconstruction_sum(cover: Cover, fib: Fibers, fiber_cover: Cover,
                       values: np.ndarray, count: int) -> np.ndarray:
    """sum_i u_i * L(u_i * f) at each point over the first ``count``
    elements: ``cover`` holds the elements on the points, ``fiber_cover``
    on ``fib``, the fibers of the points' images, and ``values`` is f on
    ``fib``.  Bumps are real, so the conjugate in the inner product is a
    no-op.

    Each layer of the cover adds, at each point, the term of one element
    nonzero there, so a point's terms come in ascending element order.  The
    sum over every element adds the same terms in the same order, and
    besides them only the terms of elements that vanish at the point,
    which are 0 or -0 wherever L(u_i * f) is finite; so every finite sum
    has the bits of the sum over every element.
    """
    segment = np.repeat(np.arange(cover.index.shape[1]), np.diff(fib.offsets))
    total = np.zeros(cover.index.shape[1], dtype=complex)
    for members, u in zip(cover.index, cover.values(count)):
        u_fiber = fiber_cover.member(members[segment])
        total = total + u * fib.average(u_fiber * values)
    return total


def reconstruct(rmap: RationalMap, basis: list, xi: TestFunction, N: int,
                sample: JuliaSample) -> tuple[TestFunction, float]:
    """Partial reconstruction sum over the first N elements, on the sample.

    Each term is element * (inner product of element with xi, composed
    with the map); the residual is the sup-norm gap to xi over the sample.
    """
    _check_sample(rmap, sample)
    pts, infs = sample.points, sample.inf_mask
    xi_vals = xi.evaluate(pts, infs)
    if N <= 0:
        table = TestFunction.from_table(pts, infs, np.zeros(pts.size, dtype=complex),
                                        name=f"recon0({xi.name})")
        return table, float(np.max(np.abs(xi_vals))) if pts.size else 0.0

    fib = sample.sibling_fibers
    partition = basis[0].partition
    count = min(N, len(basis))
    recon = reconstruction_sum(sample.cover(partition), fib, fib.cover(partition),
                               xi.evaluate(fib.powers), count)

    residual = float(np.max(np.abs(recon - xi_vals))) if pts.size else 0.0
    table = TestFunction.from_table(pts, infs, recon, name=f"recon{count}({xi.name})")
    return table, residual
