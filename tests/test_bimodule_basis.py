import numpy as np
import pytest

from lyubich_lab import bimodule_basis, preimage_solver, sphere
from lyubich_lab.bimodule_basis import (BasisElement, JuliaSample,
                                        PartitionOfUnity, SectorSpec, VanishingFunction,
                                        _RawBump, basis_to_json,
                                        branch_points_on_julia,
                                        branch_separation_radius, build_basis,
                                        farthest_point_net, julia_sample,
                                        net_radius, reconstruct)
from lyubich_lab.errors import CoverFailure, DegenerateSample
from lyubich_lab.preimage_solver import Cover, iterated_preimages
from lyubich_lab.rational_map import RationalMap, builtin_map, critical_points
from lyubich_lab.sphere import INFINITY, SpherePoint, chordal, chordal_array
from lyubich_lab.transfer_operator import cached_fiber
from lyubich_lab import test_functions as tf


@pytest.fixture(scope="module")
def quad_map():
    return builtin_map("quad")


@pytest.fixture(scope="module")
def cheb():
    return builtin_map("chebyshev")


@pytest.fixture(scope="module")
def circle_sample(quad_map):
    return julia_sample(quad_map, 320, seed=7)


@pytest.fixture(scope="module")
def interval_sample(cheb):
    return julia_sample(cheb, 320, seed=7)


# ----------------------------------------------------------------------
# sampling


def test_julia_sample_circle(circle_sample):
    assert circle_sample.size <= 320
    assert np.max(np.abs(np.abs(circle_sample.points) - 1.0)) < 1e-6


def test_julia_sample_interval(interval_sample):
    assert np.max(np.abs(interval_sample.points.imag)) < 1e-6
    assert np.max(np.abs(interval_sample.points.real)) < 2 + 1e-6


def test_julia_sample_deterministic(quad_map):
    a = julia_sample(quad_map, 100, seed=3)
    b = julia_sample(quad_map, 100, seed=3)
    np.testing.assert_array_equal(a.points, b.points)


def test_julia_sample_sorted(circle_sample):
    keys = [(p.real, p.imag) for p in circle_sample.points]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# separation radius


def test_separation_radius_circle(quad_map, circle_sample):
    r = branch_separation_radius(quad_map, circle_sample)
    assert 0.3 < r <= 0.5


def test_separation_radius_grid_oracle(quad_map, circle_sample):
    """Brute-force grid search must bracket the bisection answer."""
    from lyubich_lab.rational_map import critical_points, evaluate

    crit = [d.point for d in critical_points(quad_map)]
    pts = circle_sample.points
    dist_crit = np.min([[chordal(SpherePoint(z), c) for c in crit] for z in pts],
                       axis=1)
    gaps = []
    for z in pts:
        fib = cached_fiber(quad_map, evaluate(quad_map, z))
        atoms = fib.points()
        gap = min((chordal(a, b) for i, a in enumerate(atoms)
                   for b in atoms[i + 1:]), default=np.inf)
        gaps.append(gap)
    gaps = np.array(gaps)

    def ok(r):
        inc = dist_crit > 2 * r
        return inc.any() and np.all(gaps[inc] > 4 * r)

    answer = branch_separation_radius(quad_map, circle_sample)
    grid = np.linspace(1e-3, 1.0, 800)
    passing = [r for r in grid if ok(r)]
    assert ok(answer * 0.999)
    assert abs(max(passing) - answer) < 2e-3


def test_separation_radius_monotone_under_refinement(quad_map):
    coarse = julia_sample(quad_map, 64, seed=1)
    fine = julia_sample(quad_map, 512, seed=1)
    assert (branch_separation_radius(quad_map, fine)
            <= branch_separation_radius(quad_map, coarse) + 1e-9)


def test_separation_radius_positive_cheb(cheb, interval_sample):
    r = branch_separation_radius(cheb, interval_sample)
    assert r > 0.0


def test_separation_radius_degenerate():
    quad_map = builtin_map("quad")
    tiny = JuliaSample(map=quad_map, points=np.array([1.0 + 0j]),
                       inf_mask=np.array([False]), method="manual", seed=0)
    with pytest.raises(DegenerateSample):
        branch_separation_radius(quad_map, tiny)


# ----------------------------------------------------------------------
# nets and bases


def test_farthest_point_net_covers(circle_sample):
    idx, cover = farthest_point_net(circle_sample.points,
                                    circle_sample.inf_mask, radius=0.2)
    assert cover <= 0.2
    assert len(idx) == len(set(idx))


def test_net_radius_decreases_with_count(circle_sample):
    radii = [net_radius(circle_sample, k) for k in (4, 8, 16, 32)]
    assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_branch_points_detection(quad_map, cheb, circle_sample, interval_sample):
    assert branch_points_on_julia(quad_map, circle_sample) == []
    found = branch_points_on_julia(cheb, interval_sample)
    assert len(found) == 1
    assert abs(found[0].point.value) < 1e-9 and found[0].index == 2


def _net_loop(points, inf_mask, radius=None, count=None):
    """The greedy farthest-point net, one ``chordal_array`` per center."""
    def distances(i):
        return chordal_array(points, inf_mask, INFINITY if inf_mask[i] else complex(points[i]))

    chosen, cover = [0], distances(0)
    while not ((radius is not None and cover.max() <= radius)
               or (count is not None and len(chosen) >= count) or len(chosen) >= points.size):
        chosen.append(int(cover.argmax()))
        cover = np.minimum(cover, distances(chosen[-1]))
    return chosen, float(cover.max())


def test_farthest_point_net_equals_the_per_center_loop(circle_sample):
    pts = np.append(circle_sample.points, [0j, 1e160 + 1e160j])
    infs = np.append(circle_sample.inf_mask, [True, False])
    for points, inf_mask in ((circle_sample.points, circle_sample.inf_mask), (pts, infs)):
        for radius, count in ((0.2, None), (None, 40), (0.05, 25)):
            assert (farthest_point_net(points, inf_mask, radius, count)
                    == _net_loop(points, inf_mask, radius, count))


def test_critical_distances_equal_one_chordal_array_per_critical_point(cheb):
    # Newton's map for z^3 - 1: infinity is a critical point and lies in
    # its Julia set, and so in the sample.
    for rmap in (cheb, RationalMap([1, 0, 0, 2], [0, 0, 3])):
        sample = julia_sample(rmap, 256, seed=2)
        rows = [chordal_array(sample.points, sample.inf_mask, d.point)
                for d in critical_points(rmap)]
        assert sample.critical_distances.tobytes() == np.array(rows).tobytes()
        assert sample.half_norms.tobytes() == sphere.half_norm(sample.points).tobytes()


def _median_spacing_loop(sample):
    """The median nearest-neighbour spacing, one ``chordal_array`` per point."""
    pts, infs = sample.points, sample.inf_mask
    nearest = np.full(sample.size, np.inf)
    for i in range(sample.size):
        p = INFINITY if infs[i] else SpherePoint(complex(pts[i]))
        d = chordal_array(pts, infs, p)
        d[i] = np.inf
        nearest[i] = d.min()
    return float(np.median(nearest))


@pytest.mark.parametrize("name,size", [("basilica", 1000), ("basilica", 384),
                                       ("chebyshev", 384)])
def test_median_spacing_equals_the_pointwise_loop(name, size):
    sample = julia_sample(builtin_map(name), size, seed=1)
    assert sample.size == size
    assert bimodule_basis._median_spacing(sample) == _median_spacing_loop(sample)


def test_median_spacing_with_infinity_in_the_sample(monkeypatch):
    # The Lattès map's Julia set is the whole sphere, and infinity is a
    # fixed point: every level of its tree rooted there holds infinity.
    lattes = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4], name="lattes")
    lvl = iterated_preimages(lattes, INFINITY, 3).level(3)
    assert lvl.inf_mask.sum() == 1
    sample = JuliaSample(lattes, lvl.points, lvl.inf_mask, "tree", 0)
    want = _median_spacing_loop(sample)
    assert bimodule_basis._median_spacing(sample) == want
    # Row blocks of one and of several points, and a remainder block.
    for block in (1, 7 * sample.size):
        monkeypatch.setattr(bimodule_basis, "_SPACING_BLOCK", block)
        assert bimodule_basis._median_spacing(sample) == want
    # Three points whose median spacing is the distance from infinity to
    # its nearest point 10, 2 / hypot(1, 10).
    small = JuliaSample(lattes, np.array([0j, 10, 0]), np.array([True, False, False]),
                        "tree", 0)
    want = _median_spacing_loop(small)
    assert want == pytest.approx(2 / np.hypot(1, 10), rel=1e-15)
    for block in (1, 2, 1 << 16):
        monkeypatch.setattr(bimodule_basis, "_SPACING_BLOCK", block)
        assert bimodule_basis._median_spacing(small) == want


def test_build_basis_partition_normalization(quad_map, circle_sample):
    r = net_radius(circle_sample, 8) * 1.000001
    basis = build_basis(quad_map, circle_sample, r, count_cap=16)
    assert len(basis) == 8
    U = basis[0].partition.member_matrix(circle_sample.points,
                                         circle_sample.inf_mask)
    np.testing.assert_allclose((U ** 2).sum(axis=0), 2.0, atol=1e-10)


def test_build_basis_cover_failure(quad_map, circle_sample):
    with pytest.raises(CoverFailure):
        build_basis(quad_map, circle_sample, 0.01, count_cap=4)


def test_basis_local_injectivity(cheb, interval_sample):
    from lyubich_lab.rational_map import evaluate

    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    for i in range(interval_sample.size):
        z = SpherePoint(complex(interval_sample.points[i]))
        fib = cached_fiber(cheb, evaluate(cheb, z))
        for el in basis:
            if el.is_sector:
                continue
            inside = sum(1 for p, _ in fib.atoms
                         if chordal(p, el.center) < el.support_radius)
            assert inside <= 1


def test_basis_ordering_shrinks_toward_branch(cheb, interval_sample):
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    branch = branch_points_on_julia(cheb, interval_sample)[0].point
    dists = [chordal(el.center, branch) for el in basis if not el.is_sector]
    assert dists == sorted(dists, reverse=True)
    sector_radii = [el.support_radius for el in basis if el.is_sector]
    assert sector_radii == sorted(sector_radii, reverse=True)
    assert sector_radii, "interval map must produce sector elements"


def test_basis_json_export(quad_map, circle_sample, tmp_path):
    import json

    r = net_radius(circle_sample, 8) * 1.000001
    basis = build_basis(quad_map, circle_sample, r, count_cap=16)
    path = tmp_path / "basis.json"
    basis_to_json(basis, path)
    data = json.loads(path.read_text())
    assert len(data) == len(basis)
    for rec in data:
        assert {"center", "radius", "profile", "scale"} <= set(rec)


# ----------------------------------------------------------------------
# cover tables


def test_cover_lists_each_nonzero_member_once_in_ascending_order():
    matrix = np.array([[0.0, 0.5, 0.0],
                       [0.25, 0.0, 0.0],
                       [0.75, 1.0, 0.0]])
    cover = Cover.of(matrix)
    assert cover.index.tolist() == [[1, 0, 0], [2, 2, 0]]
    assert cover.value.tolist() == [[0.25, 0.5, 0.0], [0.75, 1.0, 0.0]]
    assert cover.values(2).tolist() == [[0.25, 0.5, 0.0], [0.0, 0.0, 0.0]]
    for i in range(3):
        assert cover.member(np.full(3, i)).tolist() == matrix[i].tolist()
    # one member per point: 2 at point 0, 0 at point 1, 1 at point 2
    assert cover.member(np.array([2, 0, 1])).tolist() == [0.75, 0.5, 0.0]
    empty = Cover.of(np.zeros((0, 4)))
    assert empty.index.shape == empty.value.shape == (0, 4)
    assert empty.member(np.zeros(4, dtype=np.intp)).tolist() == [0.0] * 4


def test_cover_of_a_partition_holds_its_member_matrix(monkeypatch, cheb, interval_sample):
    # Sector ladders at chebyshev's critical point overlap the net bumps,
    # so some points lie in more than two supports.
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    partition = basis[0].partition
    other = PartitionOfUnity(partition.degree, partition.bumps[:3])
    sample = julia_sample(cheb, 320, seed=7)
    members = []
    member_matrix = PartitionOfUnity.member_matrix

    def counting(self, points, inf_mask=None):
        members.append((self, points.size))
        return member_matrix(self, points, inf_mask)

    monkeypatch.setattr(PartitionOfUnity, "member_matrix", counting)
    # 49 bumps: the 640 sibling-fiber points take two blocks.
    assert partition.block < sample.sibling_fibers.size <= 2 * partition.block
    for points in (sample, sample.sibling_fibers):
        cover = points.cover(partition)
        assert points.cover(partition) is cover
        matrix = member_matrix(partition, points.points, points.inf_mask)
        nonzero = (matrix != 0.0).sum(axis=0)
        assert cover.index.shape == cover.value.shape == (nonzero.max(), points.size)
        assert cover.index.shape[0] > 2 and nonzero.min() < cover.index.shape[0]
        for j in range(points.size):
            held = np.flatnonzero(matrix[:, j])
            assert cover.index[:held.size, j].tolist() == held.tolist()
            assert cover.value[:held.size, j].tobytes() == matrix[held, j].tobytes()
            assert not cover.index[held.size:, j].any()
            assert not cover.value[held.size:, j].any()
        assert not cover.index.flags.writeable and not cover.value.flags.writeable
        assert points.cover(other) is not cover
    # One pass of each partition over each point set, block by block.
    assert members == [(p, n) for points in (sample, sample.sibling_fibers)
                       for p in (partition, other) for n in _blocks(p, points.size)]


def _bump_values(bump, points, inf_mask):
    """One raw bump at the points, alone: the per-bump reference for the
    bump tables."""
    d = chordal_array(points, inf_mask, bump.center)
    if bump.sector is None:
        t = d / bump.radius
        return np.clip(1.0 - t * t, 0.0, None) ** bump.exponent
    spec = bump.sector
    mid = 0.5 * (spec.r_inner + spec.r_outer)
    half = 0.5 * (spec.r_outer - spec.r_inner)
    t = (d - mid) / half
    radial = np.clip(1.0 - t * t, 0.0, None) ** bump.exponent
    if bump.center.infinite:
        with np.errstate(divide="ignore", invalid="ignore"):
            local = np.where(points == 0, np.inf, 1.0 / points)
    else:
        local = points - bump.center.value
    diff = np.angle(np.exp(1j * (np.angle(local) - spec.axis)))
    t = diff / spec.halfwidth
    angular = np.clip(1.0 - t * t, 0.0, None) ** bump.exponent
    return radial * np.where(inf_mask, 0.0, angular)


def _reference_members(partition, points, inf_mask):
    """The member matrix from the per-bump rows, summed bump by bump."""
    raw = np.array([_bump_values(b, points, inf_mask) for b in partition.bumps])
    total = np.zeros(points.size)
    for row in raw:
        total = total + row
    members = np.sqrt(partition.degree * raw / np.where(total > 0.0, total, 1.0))
    members[:, total <= 0.0] = 0.0
    return raw, members


@pytest.fixture(scope="module")
def table_cases():
    """(partition, point sets) cases: basilica's net bumps on a sample and
    its sibling fibers, chebyshev's sector ladder on the same, and bumps and
    sectors centred at 0, at 1e200 and at infinity, of exponents 2 and 3,
    on a point set holding 0 and infinity."""
    basilica, cheb = builtin_map("basilica"), builtin_map("chebyshev")
    cases = []
    for rmap, count in ((basilica, 32), (cheb, 24)):
        sample = julia_sample(rmap, 384, seed=1)
        r = min(net_radius(sample, count) * 1.000001,
                branch_separation_radius(rmap, sample) / 3.0)
        partition = build_basis(rmap, sample, r, count_cap=128)[0].partition
        cases.append((partition, [sample, sample.sibling_fibers]))
    assert not any(b.sector for b in cases[0][0].bumps)
    assert any(b.sector for b in cases[1][0].bumps)
    sector = SectorSpec(axis=0.5, halfwidth=1.2, r_inner=0.2, r_outer=1.5)
    # The bump at 1e200 and the point 1e160i take the overflow branch.
    bumps = [_RawBump(INFINITY, 0.9, 2), _RawBump(SpherePoint(0j), 0.7, 3),
             _RawBump(SpherePoint(1e200 + 0j), 0.3, 2),
             _RawBump(INFINITY, 1.5, 2, sector), _RawBump(SpherePoint(0j), 1.5, 3, sector),
             _RawBump(SpherePoint(1 - 1j), 1.1, 2, sector)]
    rng = np.random.default_rng(29)
    pts = np.concatenate([[0j, 0j, 1e160j, 1 - 1j], rng.standard_normal(60)
                          + 1j * rng.standard_normal(60)])
    infs = np.arange(pts.size) == 1
    cases.append((PartitionOfUnity(2, bumps), [JuliaSample(cheb, pts, infs, "manual", 0)]))
    return cases


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_bump_tables_and_joined_covers_equal_the_per_bump_reference(monkeypatch, table_cases,
                                                                   block):
    for partition, point_sets in table_cases:
        monkeypatch.setattr(bimodule_basis, "_TABLE_BYTES", 16 * len(partition.bumps) * block)
        assert partition.block == block
        for points in point_sets:
            raw, members = _reference_members(partition, points.points, points.inf_mask)
            assert (raw > 0).sum(axis=0).max() >= 2
            got = partition.raw_matrix(points.points, points.inf_mask)
            assert got.tobytes() == raw.tobytes()
            fresh = JuliaSample(points.map, points.points, points.inf_mask, "copy", 0)
            cover, whole = fresh.cover(partition), Cover.of(members)
            assert cover.index.shape == whole.index.shape
            assert cover.index.tobytes() == whole.index.tobytes()
            assert cover.value.tobytes() == whole.value.tobytes()
            assert not cover.index.flags.writeable and not cover.value.flags.writeable


def test_a_point_has_the_same_members_alone_as_among_others(cheb, interval_sample):
    # numpy would sum a single column pairwise; the totals are summed bump
    # by bump whatever the number of points.  The sector ladders put some
    # points in three supports.
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    partition = build_basis(cheb, interval_sample, r, count_cap=128)[0].partition
    pts, infs = interval_sample.points, interval_sample.inf_mask
    whole = partition.member_matrix(pts, infs)
    assert (whole > 0).sum(axis=0).max() > 2
    alone = np.concatenate([partition.member_matrix(pts[i:i + 1], infs[i:i + 1])
                            for i in range(pts.size)], axis=1)
    assert alone.tobytes() == whole.tobytes()


def test_an_empty_point_set_has_an_empty_cover(cheb):
    partition = PartitionOfUnity(2, [_RawBump(SpherePoint(0j), 0.5, 2)])
    empty = JuliaSample(cheb, np.zeros(0, dtype=complex), np.zeros(0, dtype=bool), "manual", 0)
    cover = empty.cover(partition)
    assert cover.index.shape == cover.value.shape == (0, 0)
    assert partition.raw_matrix(empty.points, empty.inf_mask).shape == (len(partition.bumps), 0)


def _blocks(partition, size):
    """The point counts of the member matrices of one pass of a partition
    over ``size`` points."""
    return [min(partition.block, size - s) for s in range(0, size, partition.block)]


# ----------------------------------------------------------------------
# reconstruction


def test_reconstruct_constant(quad_map, circle_sample):
    r = net_radius(circle_sample, 16) * 1.000001
    basis = build_basis(quad_map, circle_sample, r, count_cap=32)
    _, residual = reconstruct(quad_map, basis, tf.ONE, len(basis), circle_sample)
    assert residual < 1e-3


def test_reconstruct_zero_terms_gives_sup_norm(quad_map, circle_sample):
    _, residual = reconstruct(quad_map, [], tf.RE2, 0, circle_sample)
    values = tf.RE2.evaluate(circle_sample.points, circle_sample.inf_mask)
    assert residual == pytest.approx(float(np.max(np.abs(values))))


def test_reconstruct_orthogonal_support_single_term(quad_map, circle_sample):
    # four disjoint bumps on the circle; the first element reproduces itself
    centers = [1.0, 1j, -1.0, -1j]
    bumps = [_RawBump(center=SpherePoint(c), radius=0.45, exponent=2)
             for c in centers]
    partition = PartitionOfUnity(quad_map.degree, bumps)
    basis = [BasisElement(index=i, bump=b, partition=partition)
             for i, b in enumerate(bumps)]
    u1 = basis[0].function()
    _, residual = reconstruct(quad_map, basis, u1, len(basis), circle_sample)
    assert residual < 1e-10


def test_reconstruct_matches_per_point_fiber_sums(cheb, interval_sample):
    # Reference: the per-point loop over scalar fibers read through the
    # cache; the library sums segments of one batched fiber table.
    from lyubich_lab.rational_map import evaluate

    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    partition = basis[0].partition
    xi = tf.random_polynomial(np.random.default_rng(47), 2)
    pts, infs = interval_sample.points, interval_sample.inf_mask
    U = partition.member_matrix(pts, infs)
    for count in (1, len(basis) // 2, len(basis)):
        table, _ = reconstruct(cheb, basis, xi, count, interval_sample)
        want = np.zeros(pts.size, dtype=complex)
        for i, z in enumerate(interval_sample.sphere_points()):
            atoms = cached_fiber(cheb, evaluate(cheb, z)).atoms
            at = np.array([p.value for p, _ in atoms])
            at_inf = np.array([p.infinite for p, _ in atoms])
            seg = np.array([m for _, m in atoms]) * xi.evaluate(at, at_inf)
            want[i] = U[:count, i] @ (partition.member_matrix(at, at_inf)[:count] @ seg) / 2
        assert np.max(np.abs(table.evaluate(pts, infs) - want)) <= 1e-13


def test_reconstruct_solves_the_sample_sibling_fibers_once(monkeypatch, cheb,
                                                          interval_sample):
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    rng = np.random.default_rng(50)
    xis = [tf.random_polynomial(rng, 2) for _ in range(2)]
    solves = []
    members = []
    gather = preimage_solver.gather_fibers
    member_matrix = PartitionOfUnity.member_matrix

    def counting(*args, **kwargs):
        solves.append(args[1].size)
        return gather(*args, **kwargs)

    def counting_members(self, points, inf_mask=None):
        members.append(np.size(points))
        return member_matrix(self, points, inf_mask)

    # The sampled trees behind the samples solve their levels with the
    # same function, so both samples are drawn before the spies go in.
    sample = julia_sample(cheb, 320, seed=7)
    cold_sample = julia_sample(cheb, 320, seed=7)
    monkeypatch.setattr(preimage_solver, "gather_fibers", counting)
    monkeypatch.setattr(PartitionOfUnity, "member_matrix", counting_members)
    reconstruct(cheb, basis, xis[0], len(basis), sample)
    assert solves == [sample.size]
    # One pass over the sample and one over its sibling fibers.
    one_pass = sorted(_blocks(basis[0].partition, sample.size)
                      + _blocks(basis[0].partition, sample.sibling_fibers.size))
    assert sorted(members) == one_pass
    warm, warm_residual = reconstruct(cheb, basis, xis[1], len(basis), sample)
    assert solves == [sample.size]
    assert len(members) == len(one_pass)
    cold, cold_residual = reconstruct(cheb, basis, xis[1], len(basis), cold_sample)
    assert len(solves) == 2
    assert len(members) == 2 * len(one_pass)
    pts, infs = sample.points, sample.inf_mask
    assert np.array_equal(warm.evaluate(pts, infs), cold.evaluate(pts, infs))
    assert warm_residual == cold_residual
    other = builtin_map("chebyshev")
    for refused in (lambda: reconstruct(other, basis, xis[1], len(basis), sample),
                    lambda: branch_separation_radius(other, sample),
                    lambda: branch_points_on_julia(other, sample),
                    lambda: build_basis(other, sample, r)):
        with pytest.raises(ValueError, match="another map"):
            refused()


def test_reconstruct_residual_nonincreasing(quad_map, circle_sample):
    r = net_radius(circle_sample, 16) * 1.000001
    basis = build_basis(quad_map, circle_sample, r, count_cap=32)
    residuals = [reconstruct(quad_map, basis, tf.ONE, n, circle_sample)[1]
                 for n in range(0, len(basis) + 1, 4)]
    assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_reconstruct_lipschitz_benchmark(quad_map):
    sample = julia_sample(quad_map, 400, seed=11)
    r = net_radius(sample, 64) * 1.000001
    assert r <= 0.1
    basis = build_basis(quad_map, sample, r, count_cap=128)
    _, residual = reconstruct(quad_map, basis, tf.RE, len(basis), sample)
    assert residual < 1e-2


# ----------------------------------------------------------------------
# vanishing functions


def test_vanishing_function_requires_clearance(cheb, interval_sample):
    with pytest.raises(ValueError):
        VanishingFunction.bump(cheb, 0.1, 0.5, sample=interval_sample)


def test_vanishing_function_finite_tail(cheb, interval_sample):
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    vf = VanishingFunction.bump(cheb, 1.0, 0.5, sample=interval_sample)
    meets = [vf.meets(el) for el in basis]
    assert any(meets)
    assert not all(meets)
    last = max(i for i, m in enumerate(meets) if m)
    assert last < len(basis) - 1


def test_vanishing_zero_function_meets_nothing(cheb, interval_sample):
    r = net_radius(interval_sample, 16) * 1.000001
    basis = build_basis(cheb, interval_sample,
                        min(r, branch_separation_radius(cheb, interval_sample) / 3),
                        count_cap=128)
    vf = VanishingFunction.zero()
    assert not any(vf.meets(el) for el in basis)
