import numpy as np
import pytest

from lyubich_lab import bimodule_basis, preimage_solver, sphere
from lyubich_lab.bimodule_basis import (JuliaSample, PartitionOfUnity, SectorSpec,
                                        VanishingFunction, _RawBump, basis_to_json,
                                        branch_points_on_julia,
                                        branch_separation_radius, build_basis,
                                        julia_sample, net_radius, reconstruct, reconstruction_sum)
from lyubich_lab.errors import CoverFailure, DegenerateSample
from lyubich_lab.operator_lab import default_basis
from lyubich_lab.preimage_solver import Cover, iterated_preimages
from lyubich_lab.rational_map import RationalMap, builtin_map, critical_points
from lyubich_lab.sphere import INFINITY, SpherePoint, chordal, chordal_pairs
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


def _fresh_net(points, inf_mask, radius=None, count=None):
    """The prefix of a new greedy farthest-point net of the points that a
    read at ``radius`` and ``count`` takes, and its cover radius."""
    return bimodule_basis._Net(points, inf_mask, sphere.half_norm(points)).take(radius, count)


def test_farthest_point_net_covers(circle_sample):
    idx, cover = _fresh_net(circle_sample.points, circle_sample.inf_mask, radius=0.2)
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
    """The greedy farthest-point net, one ``chordal_pairs`` row per center."""
    def distances(i):
        c = INFINITY if inf_mask[i] else SpherePoint(complex(points[i]))
        return chordal_pairs(points, inf_mask, c.value, c.infinite)

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
            assert (_fresh_net(points, inf_mask, radius, count)
                    == _net_loop(points, inf_mask, radius, count))


def test_critical_distances_equal_one_chordal_array_per_critical_point(cheb):
    # Newton's map for z^3 - 1: infinity is a critical point and lies in
    # its Julia set, and so in the sample.
    for rmap in (cheb, RationalMap([1, 0, 0, 2], [0, 0, 3])):
        sample = julia_sample(rmap, 256, seed=2)
        rows = [chordal_pairs(sample.points, sample.inf_mask, d.point.value, d.point.infinite)
                for d in critical_points(rmap)]
        assert sample.critical_distances.tobytes() == np.array(rows).tobytes()
        assert sample.half_norms.tobytes() == sphere.half_norm(sample.points).tobytes()


def _median_spacing_loop(sample):
    """The median nearest-neighbour spacing, one ``chordal_pairs`` row per point."""
    pts, infs = sample.points, sample.inf_mask
    nearest = np.full(sample.size, np.inf)
    for i in range(sample.size):
        p = INFINITY if infs[i] else SpherePoint(complex(pts[i]))
        d = chordal_pairs(pts, infs, p.value, p.infinite)
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


def _median_spacing_table(sample):
    """The median nearest-neighbour spacing from the whole distance table
    in one call, row i holding the distances from every point to point i."""
    pts, infs, norms = sample.points, sample.inf_mask, sample.half_norms
    d = sphere._chordal(pts, infs, norms, pts[:, None], infs[:, None], norms[:, None])
    np.fill_diagonal(d, np.inf)
    return float(np.median(d.min(axis=1)))


def test_median_spacing_takes_pairs_past_the_overflow_bound_as_the_table_does(monkeypatch):
    # Near |z| = 1e200 the half norms' product passes sphere._OVERFLOW and
    # the chordal rule divides by each norm in turn, which is not symmetric
    # in the last bit: on several of these samples, a table read one way
    # round for each pair has another median.  Infinity and points of
    # modulus about 1 share the samples.
    basilica = builtin_map("basilica")
    for seed in range(12):
        rng = np.random.default_rng(seed)
        big = 1e200 * np.exp(2j * np.pi * rng.uniform()) * (
            1 + 0.01 * (rng.standard_normal(31) + 1j * rng.standard_normal(31)))
        pts = np.concatenate([rng.standard_normal(4) + 1j * rng.standard_normal(4), big, [0j]])
        infs = np.arange(pts.size) == pts.size - (seed % 2)
        sample = JuliaSample(basilica, pts, infs, "test", seed)
        want = _median_spacing_table(sample)
        for block in (1, 7, 1 << 16):
            monkeypatch.setattr(bimodule_basis, "_SPACING_BLOCK", block)
            assert bimodule_basis._median_spacing(sample) == want


def test_median_spacing_equals_the_whole_table(monkeypatch):
    basilica = builtin_map("basilica")
    sample = julia_sample(basilica, 384, seed=1)
    want = _median_spacing_table(sample)
    for block in (1, 5 * 384, 1 << 16):
        monkeypatch.setattr(bimodule_basis, "_SPACING_BLOCK", block)
        assert bimodule_basis._median_spacing(sample) == want


@pytest.mark.parametrize("size,elements", [(33, 31), (384, 48)])
def test_the_basis_net_continues_the_radius_net(size, elements):
    # On basilica no critical point meets the sample, so the basis pool is
    # the whole sample and its net continues the 32-centre radius net up to
    # the prefix a fresh net at radius r stops at.  On 33 points that is
    # 31 centres, though the radius net already holds 32.
    basilica = builtin_map("basilica")
    sample = julia_sample(basilica, size, seed=1)
    basis = default_basis(basilica, sample, count=32)
    assert len(basis) == elements
    assert len(sample.net.chosen) == max(32, elements)
    r = min(net_radius(sample, 32) * 1.000001,
            branch_separation_radius(basilica, sample) / 3.0)
    fresh = _fresh_net(sample.points, sample.inf_mask, radius=r, count=256)
    assert sample.net.take(radius=r, count=256) == fresh
    assert len(fresh[0]) == elements
    assert [bump.center for bump in basis.bumps] == [sample.atom(i) for i in fresh[0]]
    for count in (1, 16, 32):
        assert net_radius(sample, count) == _fresh_net(
            sample.points, sample.inf_mask, count=count)[1]


@pytest.mark.parametrize("size", [16, 31, 32])
def test_a_basis_count_of_at_least_the_sample_size_names_both(size):
    basilica = builtin_map("basilica")
    sample = julia_sample(basilica, size, seed=1)
    assert sample.size == size
    with pytest.raises(DegenerateSample, match=f"32 elements.* {size} points"):
        default_basis(basilica, sample, count=32)


def test_build_basis_partition_normalization(quad_map, circle_sample):
    r = net_radius(circle_sample, 8) * 1.000001
    basis = build_basis(quad_map, circle_sample, r, count_cap=16)
    assert len(basis) == 8
    U = basis.member_matrix(circle_sample.points, circle_sample.inf_mask)
    np.testing.assert_allclose((U ** 2).sum(axis=0), 2.0, atol=1e-10)


def test_build_basis_cover_failure(quad_map, circle_sample):
    with pytest.raises(CoverFailure):
        build_basis(quad_map, circle_sample, 0.01, count_cap=4)


@pytest.mark.parametrize("count", [0, -3])
def test_a_basis_count_below_one_is_rejected(quad_map, circle_sample, count):
    # A count or cap of 0 once took a one-element net or raised
    # CoverFailure, as if the numerics had failed.
    with pytest.raises(ValueError, match=f"count >= 1, got {count}"):
        default_basis(quad_map, circle_sample, count=count)
    with pytest.raises(ValueError, match=f"count_cap >= 1, got {count}"):
        default_basis(quad_map, circle_sample, count_cap=count)
    with pytest.raises(ValueError, match=f"count_cap >= 1, got {count}"):
        build_basis(quad_map, circle_sample, 0.5, count_cap=count)


def test_basis_local_injectivity(cheb, interval_sample):
    from lyubich_lab.rational_map import evaluate

    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    for i in range(interval_sample.size):
        z = SpherePoint(complex(interval_sample.points[i]))
        fib = cached_fiber(cheb, evaluate(cheb, z))
        for bump in basis.bumps:
            if bump.sector is not None:
                continue
            inside = sum(1 for p, _ in fib.atoms
                         if chordal(p, bump.center) < bump.radius)
            assert inside <= 1


def test_basis_ordering_shrinks_toward_branch(cheb, interval_sample):
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    branch = branch_points_on_julia(cheb, interval_sample)[0].point
    dists = [chordal(b.center, branch) for b in basis.bumps if b.sector is None]
    assert dists == sorted(dists, reverse=True)
    sector_radii = [b.radius for b in basis.bumps if b.sector is not None]
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
    partition = build_basis(cheb, interval_sample, r, count_cap=128)
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
    d = chordal_pairs(points, inf_mask, bump.center.value, bump.center.infinite)
    if bump.sector is None:
        t = d / bump.radius
        return np.clip(1.0 - t * t, 0.0, None) ** bimodule_basis._PROFILE
    spec = bump.sector
    mid = 0.5 * (spec.r_inner + spec.r_outer)
    half = 0.5 * (spec.r_outer - spec.r_inner)
    t = (d - mid) / half
    radial = np.clip(1.0 - t * t, 0.0, None) ** bimodule_basis._PROFILE
    if bump.center.infinite:
        with np.errstate(divide="ignore", invalid="ignore"):
            local = np.where(points == 0, np.inf, 1.0 / points)
    else:
        local = points - bump.center.value
    diff = np.angle(np.exp(1j * (np.angle(local) - spec.axis)))
    t = diff / spec.halfwidth
    angular = np.clip(1.0 - t * t, 0.0, None) ** bimodule_basis._PROFILE
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
    sectors centred at 0, at 1e200 and at infinity, on a point set holding
    0 and infinity."""
    basilica, cheb = builtin_map("basilica"), builtin_map("chebyshev")
    cases = []
    for rmap, count in ((basilica, 32), (cheb, 24)):
        sample = julia_sample(rmap, 384, seed=1)
        r = min(net_radius(sample, count) * 1.000001,
                branch_separation_radius(rmap, sample) / 3.0)
        partition = build_basis(rmap, sample, r, count_cap=128)
        cases.append((partition, [sample, sample.sibling_fibers]))
    assert not any(b.sector for b in cases[0][0].bumps)
    assert any(b.sector for b in cases[1][0].bumps)
    sector = SectorSpec(axis=0.5, halfwidth=1.2, r_inner=0.2, r_outer=1.5)
    # The bump at 1e200 and the point 1e160i take the overflow branch.
    bumps = [_RawBump(INFINITY, 0.9), _RawBump(SpherePoint(0j), 0.7),
             _RawBump(SpherePoint(1e200 + 0j), 0.3),
             _RawBump(INFINITY, 1.5, sector), _RawBump(SpherePoint(0j), 1.5, sector),
             _RawBump(SpherePoint(1 - 1j), 1.1, sector)]
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
    partition = build_basis(cheb, interval_sample, r, count_cap=128)
    pts, infs = interval_sample.points, interval_sample.inf_mask
    whole = partition.member_matrix(pts, infs)
    assert (whole > 0).sum(axis=0).max() > 2
    alone = np.concatenate([partition.member_matrix(pts[i:i + 1], infs[i:i + 1])
                            for i in range(pts.size)], axis=1)
    assert alone.tobytes() == whole.tobytes()


def test_an_empty_point_set_has_an_empty_cover(cheb):
    partition = PartitionOfUnity(2, [_RawBump(SpherePoint(0j), 0.5)])
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
    # N <= 0 gives complex zeros at the sample's points, and the residual
    # has the bits of max|xi|.
    sup = float(np.max(np.abs(tf.RE2.evaluate(circle_sample.points, circle_sample.inf_mask))))
    for N in (0, -1):
        values, residual = reconstruct(quad_map, PartitionOfUnity(2, []), tf.RE2, N,
                                       circle_sample)
        assert values.tobytes() == np.zeros(circle_sample.size, dtype=complex).tobytes()
        assert np.float64(residual).tobytes() == np.float64(sup).tobytes()


def test_reconstruct_orthogonal_support_single_term(quad_map, circle_sample):
    # four disjoint bumps on the circle; the first element reproduces itself
    centers = [1.0, 1j, -1.0, -1j]
    bumps = [_RawBump(center=SpherePoint(c), radius=0.45) for c in centers]
    basis = PartitionOfUnity(quad_map.degree, bumps)
    u1 = tf.TestFunction.from_callable(lambda pts, infs: basis.member_matrix(pts, infs)[0],
                                       name="u0")
    _, residual = reconstruct(quad_map, basis, u1, len(basis), circle_sample)
    assert residual < 1e-10


def test_reconstruct_matches_per_point_fiber_sums(cheb, interval_sample):
    # Reference: the per-point loop over scalar fibers read through the
    # cache; the library sums segments of one batched fiber table.
    from lyubich_lab.rational_map import evaluate

    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    xi = tf.random_polynomial(np.random.default_rng(47), 2)
    pts, infs = interval_sample.points, interval_sample.inf_mask
    U = basis.member_matrix(pts, infs)
    for count in (1, len(basis) // 2, len(basis)):
        values, _ = reconstruct(cheb, basis, xi, count, interval_sample)
        want = np.zeros(pts.size, dtype=complex)
        for i, z in enumerate(interval_sample.sphere_points()):
            atoms = cached_fiber(cheb, evaluate(cheb, z)).atoms
            at = np.array([p.value for p, _ in atoms])
            at_inf = np.array([p.infinite for p, _ in atoms])
            seg = np.array([m for _, m in atoms]) * xi.evaluate(at, at_inf)
            want[i] = U[:count, i] @ (basis.member_matrix(at, at_inf)[:count] @ seg) / 2
        assert np.max(np.abs(values - want)) <= 1e-13


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
    one_pass = sorted(_blocks(basis, sample.size) + _blocks(basis, sample.sibling_fibers.size))
    assert sorted(members) == one_pass
    warm, warm_residual = reconstruct(cheb, basis, xis[1], len(basis), sample)
    assert solves == [sample.size]
    assert len(members) == len(one_pass)
    cold, cold_residual = reconstruct(cheb, basis, xis[1], len(basis), cold_sample)
    assert len(solves) == 2
    assert len(members) == 2 * len(one_pass)
    assert np.array_equal(warm, cold)
    assert warm_residual == cold_residual
    other = builtin_map("chebyshev")
    for refused in (lambda: reconstruct(other, basis, xis[1], len(basis), sample),
                    lambda: branch_separation_radius(other, sample),
                    lambda: branch_points_on_julia(other, sample),
                    lambda: build_basis(other, sample, r)):
        with pytest.raises(ValueError, match="another map"):
            refused()


def test_reconstruct_reads_the_prefix_sum(cheb, interval_sample):
    r = min(net_radius(interval_sample, 24) * 1.000001,
            branch_separation_radius(cheb, interval_sample) / 3.0)
    basis = build_basis(cheb, interval_sample, r, count_cap=128)
    xi = tf.random_polynomial(np.random.default_rng(55), 2)
    for N in range(1, len(basis) + 3):
        values, residual = reconstruct(cheb, basis, xi, N, interval_sample)
        want = reconstruction_sum(interval_sample, basis, xi, min(N, len(basis)))
        assert values.tobytes() == want.tobytes()
        gap = want - xi.evaluate(interval_sample.points, interval_sample.inf_mask)
        assert residual == float(np.max(np.abs(gap)))


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
    meets = vf.meets_elements(basis).tolist()
    assert any(meets)
    assert not all(meets)
    last = max(i for i, m in enumerate(meets) if m)
    assert last < len(basis) - 1


def test_vanishing_zero_function_meets_nothing(cheb, interval_sample):
    r = net_radius(interval_sample, 16) * 1.000001
    basis = build_basis(cheb, interval_sample,
                        min(r, branch_separation_radius(cheb, interval_sample) / 3),
                        count_cap=128)
    vf = VanishingFunction(tf.TestFunction.constant(0.0), SpherePoint(0j), 0.0)
    assert not vf.meets_elements(basis).any()


def _meets(vf, bump):
    """The scalar rule: one chordal distance between the support centres."""
    if vf.support_radius <= 0.0:
        return False
    return chordal(vf.support_center, bump.center) < vf.support_radius + bump.radius


@pytest.mark.parametrize("rmap", [builtin_map("basilica"), builtin_map("chebyshev"),
                                  RationalMap([1, 0, 0, 2], [0, 0, 3])],
                         ids=["basilica", "chebyshev", "newton"])
def test_a_support_meets_the_elements_the_scalar_rule_meets(rmap):
    # Chebyshev's basis holds sector ladders; Newton's map for z^3 - 1 has
    # infinity in its sample.
    sample = julia_sample(rmap, 384, seed=1)
    basis = default_basis(rmap, sample)
    bumps = basis.bumps
    centres = [b.center for b in bumps[::9]] + [sample.atom(i) for i in range(0, 384, 61)]
    centres += [INFINITY, SpherePoint(0j), SpherePoint(1e200 + 0j)]
    for centre in centres:
        gaps = [chordal(centre, b.center) for b in bumps]
        touching = sorted({g - b.radius for g, b in zip(gaps, bumps)})
        # radii at which some pair of supports just touches, and just past
        radii = [0.0, 1e-3, 0.05, 0.5, 3.0] + touching[1::5] + [np.nextafter(g, 3)
                                                                  for g in touching[2::5]]
        for radius in (r for r in radii if r >= 0):
            vf = VanishingFunction(fn=tf.ONE, support_center=centre, support_radius=radius)
            expected = [radius > 0 and g < radius + b.radius for g, b in zip(gaps, bumps)]
            assert vf.meets_elements(basis).tolist() == expected
        assert [_meets(vf, b) for b in bumps] == expected
    assert any(b.sector for b in bumps) == (rmap.name == "chebyshev")
    zero = VanishingFunction(tf.TestFunction.constant(0.0), SpherePoint(0j), 0.0)
    assert zero.meets_elements(PartitionOfUnity(2, [])).shape == (0,)
