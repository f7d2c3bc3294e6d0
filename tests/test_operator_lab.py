import json
import math
import sys

import numpy as np
import pytest

from lyubich_lab.bimodule_basis import (BasisElement, PartitionOfUnity,
                                        VanishingFunction, _RawBump,
                                        julia_sample, reconstruct)
from lyubich_lab.errors import NoVanishingTail
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.bimodule_basis import reconstruction_sum
from lyubich_lab.operator_lab import (TOLERANCES, _frame_matrix, build_model,
                                      default_basis, verification_suite, verify_covariance,
                                      verify_frame_bound, verify_isometry,
                                      verify_key_lemma, verify_representation,
                                      verify_vanishing_reconstruction)
from lyubich_lab.rational_map import RationalMap, builtin_map
from lyubich_lab.sphere import INFINITY, SpherePoint
from lyubich_lab.transfer_operator import apply_transfer, inner_product
from lyubich_lab import bimodule_basis, operator_lab, preimage_solver
from lyubich_lab import test_functions as tf


@pytest.fixture(scope="module")
def quad_map():
    return builtin_map("quad")


@pytest.fixture(scope="module")
def cheb():
    return builtin_map("chebyshev")


@pytest.fixture(scope="module")
def quad_model(quad_map):
    return build_model(quad_map, 1, 8)


@pytest.fixture(scope="module")
def cheb_model(cheb):
    return build_model(cheb, -1, 8)


@pytest.fixture(scope="module")
def quad_basis(quad_map):
    sample = julia_sample(quad_map, 384, seed=0)
    return default_basis(quad_map, sample, count=32)


@pytest.fixture(scope="module")
def cheb_basis(cheb):
    sample = julia_sample(cheb, 384, seed=0)
    return default_basis(cheb, sample, count=32)


# ----------------------------------------------------------------------
# model structure


def test_model_dims(quad_map, cheb):
    assert build_model(quad_map, 1, 2).dims() == (1, 2, 4)
    assert build_model(cheb, 2, 2).dims() == (1, 2, 3)
    assert build_model(quad_map, 0.5 + 0.5j, 0).dims() == (1,)


def test_level_weights_sum_to_one(cheb_model):
    for lvl in cheb_model.levels:
        assert np.sum(lvl.weights) == pytest.approx(1.0, abs=1e-15)


def test_adjoint_pairing(quad_model):
    rng = np.random.default_rng(31)
    k = 5
    for _ in range(30):
        f = rng.normal(size=quad_model.dim(k - 1)) \
            + 1j * rng.normal(size=quad_model.dim(k - 1))
        g = rng.normal(size=quad_model.dim(k)) \
            + 1j * rng.normal(size=quad_model.dim(k))
        comp = quad_model.composition_matrix(k)
        lhs = quad_model.inner(k, comp @ f, g)
        rhs = quad_model.inner(k - 1, f, quad_model.apply_adjoint(k, g))
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_composition_is_identity(cheb_model):
    for k in (1, 4, 8):
        comp = cheb_model.composition_matrix(k)
        adj = cheb_model.adjoint_matrix(k)
        eye = adj @ comp
        assert np.max(np.abs(eye - np.eye(cheb_model.dim(k - 1)))) < 1e-12


def test_range_projection_idempotent(cheb_model):
    k = 6
    comp = cheb_model.composition_matrix(k)
    proj = comp @ cheb_model.adjoint_matrix(k)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_adjoint_realizes_transfer(cheb_model, cheb):
    k = 7
    rng = np.random.default_rng(32)
    f = tf.random_polynomial(rng, 2)
    fv = cheb_model.values(f, k)
    via_model = cheb_model.apply_adjoint(k, fv)
    prev = cheb_model.levels[k - 1]
    for j in range(prev.size):
        y = INFINITY if prev.inf_mask[j] else SpherePoint(complex(prev.points[j]))
        assert abs(via_model[j] - apply_transfer(cheb, f, y)) < 1e-10


# ----------------------------------------------------------------------
# identity residuals


def test_isometry_constant(quad_model):
    assert verify_isometry(quad_model, tf.ONE, 3) == 0.0


def test_isometry_coordinate(quad_model):
    assert verify_isometry(quad_model, tf.Z, 2) < 1e-14


@pytest.mark.parametrize("name,w", [("quad", 1), ("basilica", 0.25),
                                    ("chebyshev", -1)])
def test_isometry_random_trials(name, w):
    model = build_model(builtin_map(name), w, 8)
    rng = np.random.default_rng(33)
    for _ in range(100):
        assert verify_isometry(model, tf.random_polynomial(rng, 2), 8) < 1e-12


def test_covariance_reduces_to_isometry(cheb_model):
    rng = np.random.default_rng(34)
    f = tf.random_polynomial(rng, 2)
    assert verify_covariance(cheb_model, tf.ONE, f, f, 5) < 1e-12


def test_covariance_symmetric_symbol(quad_model):
    # transfer of z vanishes for the squaring map, so both sides are zero
    assert verify_covariance(quad_model, tf.Z, tf.ONE, tf.ONE, 4) < 1e-13


def test_covariance_random_trials(cheb_model):
    rng = np.random.default_rng(35)
    for _ in range(100):
        a = tf.random_polynomial(rng, 2)
        f = tf.random_polynomial(rng, 2)
        g = tf.random_polynomial(rng, 2)
        assert verify_covariance(cheb_model, a, f, g, 8) < 1e-10


def test_representation_identity_element(quad_model):
    r1, r2 = verify_representation(quad_model, tf.ONE, tf.ONE, tf.ONE, 8)
    assert r1 == 0.0
    assert r2 < 1e-12


def test_representation_coordinate(quad_model):
    r1, r2 = verify_representation(quad_model, tf.Z, tf.Z, tf.ONE, 8)
    assert r1 == 0.0
    assert r2 < 1e-10


def test_representation_random_pairs(cheb_model):
    rng = np.random.default_rng(36)
    for _ in range(50):
        xi = tf.random_polynomial(rng, 2)
        eta = tf.random_polynomial(rng, 2)
        a = tf.random_polynomial(rng, 1)
        r1, r2 = verify_representation(cheb_model, xi, eta, a, 8)
        assert r1 == 0.0
        assert r2 < 1e-10


def test_representation_is_exact_from_16384_atoms():
    # From 256 KiB (16384 complex values) numpy runs a product with a
    # temporary operand in place and may swap its operands, which moves
    # the last bit: the exact first relation must still read 0.
    report = verification_suite(builtin_map("basilica"), m=14, seed=1, trials=3,
                                pairs=3, identities=["representation"])
    assert report["all_pass"]


def test_refit_fibers_catch_a_swapped_parent():
    # The checks re-solve the level below with the engine that built the
    # tree, so their fibers equal the tree's bit for bit; a fault in the
    # tree's parent assembly must still show against them.
    basilica = builtin_map("basilica")
    model = build_model(basilica, default_root(basilica), 6)
    parent = model.levels[6].parent
    i, j = 0, int(np.flatnonzero(parent != parent[0])[0])

    def worst(model):
        rng = np.random.default_rng(44)
        cov = rep = 0.0
        for _ in range(5):
            a, f, g = (tf.random_polynomial(rng, 2) for _ in range(3))
            cov = max(cov, verify_covariance(model, a, f, g, 6))
            rep = max(rep, verify_representation(model, f, g, a, 6)[1])
        return cov, rep

    cov, rep = worst(model)
    assert cov <= TOLERANCES["covariance"] and rep <= TOLERANCES["representation"]
    parent[[i, j]] = parent[[j, i]]
    cov, rep = worst(model)
    assert cov > TOLERANCES["covariance"]
    assert rep > TOLERANCES["representation"]


def test_key_lemma_zero_terms(quad_model, quad_basis):
    assert verify_key_lemma(quad_model, quad_basis, 0, tf.ONE, 8) == 0.0


def test_key_lemma_paths_agree(quad_model, quad_basis):
    assert verify_key_lemma(quad_model, quad_basis, 8, tf.ONE, 8) < 1e-10


def test_key_lemma_random_symbol(cheb_model, cheb_basis):
    rng = np.random.default_rng(37)
    a = tf.random_polynomial(rng, 2)
    assert verify_key_lemma(cheb_model, cheb_basis, len(cheb_basis), a, 8) < 1e-10


def test_frame_bound_zero(quad_model):
    lows, highs = verify_frame_bound(quad_model, [], 6)
    assert lows.shape == highs.shape == (0,)


def test_frame_bound_full_basis(quad_map, quad_basis):
    model = build_model(quad_map, 1, 6)
    lows, highs = verify_frame_bound(model, quad_basis, 6)
    assert lows.shape == highs.shape == (len(quad_basis),)
    assert -1e-10 <= lows[-1]
    assert 0.9 <= highs[-1] <= 1 + 1e-8


def test_frame_bound_monotone(quad_model, quad_basis):
    _, highs = verify_frame_bound(quad_model, quad_basis, 8)
    previous = 0.0
    for top in highs:
        assert top >= previous - 1e-10
        previous = top


def test_frame_bound_beyond_4096_atoms(quad_map, quad_basis):
    model = build_model(quad_map, 1, 13)
    assert model.dim(13) == 8192
    lows, highs = verify_frame_bound(model, quad_basis, 13)
    assert -1e-10 <= lows[-1] and highs[-1] <= 1 + 1e-8


def test_vanishing_zero_function(cheb_model, cheb_basis):
    M, residual = verify_vanishing_reconstruction(
        cheb_model, cheb_basis, VanishingFunction.zero(), 8)
    assert (M, residual) == (0, 0.0)


def test_vanishing_full_circle(quad_map, quad_model, quad_basis):
    # no branch points meet the circle, so any bump is certified
    vf = VanishingFunction.bump(quad_map, 1.0, 0.5, branch_points=[])
    M, residual = verify_vanishing_reconstruction(quad_model, quad_basis, vf, 8)
    assert M <= len(quad_basis)
    assert residual < 1e-2


def test_vanishing_tail_chebyshev(cheb, cheb_model, cheb_basis):
    sample = julia_sample(cheb, 384, seed=0)
    vf = VanishingFunction.bump(cheb, 1.0, 0.5, sample=sample)
    M, residual = verify_vanishing_reconstruction(cheb_model, cheb_basis, vf, 8)
    assert 0 < M < len(cheb_basis)
    assert residual < 1e-2


def test_vanishing_no_tail_raises(cheb_model, cheb_basis, cheb):
    sample = julia_sample(cheb, 384, seed=0)
    # a support blanket over the whole interval meets every element
    wide = VanishingFunction(fn=tf.ONE, support_center=SpherePoint(0j),
                             support_radius=10.0)
    with pytest.raises(NoVanishingTail):
        verify_vanishing_reconstruction(cheb_model, cheb_basis, wide, 8)


# ----------------------------------------------------------------------
# the suite


def test_suite_runs_and_passes(quad_map):
    report = verification_suite(quad_map, m=6, seed=1, trials=10, pairs=5,
                                basis_count=16, sample_size=128,
                                unitality_points=64)
    assert report["all_pass"]
    names = {rec["identity"] for rec in report["results"]}
    assert names == set(
        ["invariance", "isometry", "covariance", "transfer_unitality",
         "transfer_two_path", "representation", "key_lemma", "frame_bound",
         "vanishing_tail"])
    for rec in report["results"]:
        assert {"identity", "map", "w", "m", "k", "residual",
                "tolerance", "pass"} <= set(rec)


def test_suite_subset(quad_map):
    report = verification_suite(quad_map, m=5, seed=1, trials=5, pairs=2,
                                basis_count=8, sample_size=64,
                                unitality_points=16,
                                identities=["isometry"])
    assert [rec["identity"] for rec in report["results"]] == ["isometry"]


@pytest.mark.parametrize("m", [0, -1])
def test_suite_rejects_depth_below_1(quad_map, m):
    with pytest.raises(ValueError, match="depth m >= 1"):
        verification_suite(quad_map, m=m, identities=["isometry"])


def test_suite_rejects_unknown_identities(quad_map):
    # A misspelt name once selected nothing and reported all_pass.
    with pytest.raises(ValueError, match=r"unknown identities \['keylemma'\]"):
        verification_suite(quad_map, m=4, identities=["keylemma", "isometry"])


def test_suite_deterministic(quad_map):
    a = verification_suite(quad_map, m=5, seed=9, trials=5, pairs=3,
                           basis_count=8, sample_size=64, unitality_points=32)
    b = verification_suite(quad_map, m=5, seed=9, trials=5, pairs=3,
                           basis_count=8, sample_size=64, unitality_points=32)
    assert a == b


def test_suite_takes_both_samples_from_one_tree(monkeypatch, quad_map):
    # The default 384-point basis sample and 1000-point unitality sample
    # both pick depth 12, so one sampled tree serves them.
    depths = []
    sampled_tree = bimodule_basis.sampled_tree

    def counting(rmap, w, m, *args, **kwargs):
        depths.append(m)
        return sampled_tree(rmap, w, m, *args, **kwargs)

    monkeypatch.setattr(bimodule_basis, "sampled_tree", counting)
    verification_suite(quad_map, m=4, seed=3, trials=2, pairs=2, basis_count=8,
                       identities=["transfer_unitality", "key_lemma"])
    assert depths == [12]

    both = bimodule_basis._julia_samples(quad_map, (384, 1000), 3)
    assert depths == [12, 12]
    for sample, size in zip(both, (384, 1000)):
        alone = julia_sample(quad_map, size, 3)
        np.testing.assert_array_equal(sample.points, alone.points)
        np.testing.assert_array_equal(sample.inf_mask, alone.inf_mask)
        assert sample.method == alone.method


def test_suite_evaluates_the_basis_once_per_level(monkeypatch, quad_map):
    # The frame bound takes every prefix N of the basis, the key lemma three
    # and the vanishing tail one; all of them read one matrix of level m,
    # and the key lemma one matrix of the 2^(m+1) siblings of its atoms.
    sizes = []
    member_matrix = PartitionOfUnity.member_matrix

    def counting(self, points, inf_mask=None):
        sizes.append(np.size(points))
        return member_matrix(self, points, inf_mask)

    monkeypatch.setattr(PartitionOfUnity, "member_matrix", counting)
    report = verification_suite(quad_map, m=6, seed=1, trials=2, pairs=2,
                                identities=["key_lemma", "frame_bound",
                                            "vanishing_tail"])
    assert report["results"][1]["N"] > 1
    assert sizes.count(2 ** 6) == 1
    assert sizes.count(2 ** 7) == 1


def test_suite_finds_the_branch_points_once(monkeypatch, cheb):
    # The basis and the vanishing tail both read the branch points, which
    # the sample finds with one O(size^2) median spacing.
    spacings = []
    median_spacing = bimodule_basis._median_spacing

    def counting(sample):
        spacings.append(sample.size)
        return median_spacing(sample)

    monkeypatch.setattr(bimodule_basis, "_median_spacing", counting)
    report = verification_suite(cheb, m=6, seed=1, trials=2, pairs=2,
                                identities=["key_lemma", "frame_bound",
                                            "vanishing_tail"])
    assert len(report["results"]) == 3
    assert spacings == [384]


def test_suite_builds_no_basis_it_does_not_read():
    # At m=6 the default basis of z^3 - 3z cannot cover its sample
    # (CoverFailure), but invariance never reads the basis.
    cubic = RationalMap([0, -3, 0, 1], [1])
    report = verification_suite(cubic, -2, m=6, identities=["invariance"])
    [record] = report["results"]
    assert record["identity"] == "invariance" and record["pass"]


def test_model_solves_each_level_once(monkeypatch, quad_map):
    calls = []
    gather = preimage_solver.gather_fibers

    def counting(*args, **kwargs):
        calls.append(args)
        return gather(*args, **kwargs)

    # The tree builder solves its levels with the same function, so the
    # spy goes in once the model is built.
    model = build_model(quad_map, 1, 5)
    monkeypatch.setattr(preimage_solver, "gather_fibers", counting)
    rng = np.random.default_rng(3)
    for _ in range(3):
        a, f, g = (tf.random_polynomial(rng, 2) for _ in range(3))
        assert verify_covariance(model, a, f, g, 5) <= TOLERANCES["covariance"]
        assert verify_representation(model, f, g, a, 5)[1] <= TOLERANCES["representation"]
    assert len(calls) == 1


def test_levels_own_what_the_checks_read(quad_model):
    assert quad_model.levels[5] is quad_model.tree.level(5)
    assert quad_model.fibers(8) is quad_model.levels[7].fibers
    assert quad_model.sibling_fibers(8) is quad_model.levels[8].sibling_fibers


def test_suite_solves_each_point_set_and_evaluates_each_partition_once(monkeypatch):
    solved, members = [], []
    gather, member_matrix = preimage_solver.gather_fibers, PartitionOfUnity.member_matrix

    def counting(rmap, points, inf_mask, siblings=False):
        # The tree builders solve each level to grow the next one; the
        # checks solve a level again on their own, and only they count.
        if sys._getframe(1).f_code is not preimage_solver._grow.__code__:
            solved.append((points, siblings))
        return gather(rmap, points, inf_mask, siblings)

    def counting_members(self, points, inf_mask=None):
        members.append((self, points))
        return member_matrix(self, points, inf_mask)

    monkeypatch.setattr(preimage_solver, "gather_fibers", counting)
    monkeypatch.setattr(PartitionOfUnity, "member_matrix", counting_members)
    report = verification_suite(builtin_map("basilica"), m=6, seed=1, trials=4, pairs=4)
    assert report["all_pass"]
    # The fibers over level 5 (covariance, representation), the sibling
    # fibers of level 6 (key lemma) and of the basis sample (separation
    # radius), and the fibers over the unitality sample.  The lists hold
    # the arrays, so no id is reused.
    assert len({(id(points), siblings) for points, siblings in solved}) == len(solved) == 4
    # The basis on level 6 and on its sibling fibers.
    assert len({(id(p), id(points)) for p, points in members}) == len(members) == 2


# ----------------------------------------------------------------------
# the sibling-block path against the dense reference

ORACLE_BOUND = 1e-14

ORACLE_CASES = [
    ("quad", builtin_map("quad"), 1, 6),
    ("basilica", builtin_map("basilica"), None, 6),
    # level 1 is a single child of multiplicity 2, a padded block
    ("chebyshev@-2", builtin_map("chebyshev"), -2, 1),
    # blocks of 3
    ("z^3", RationalMap([0, 0, 0, 1], [1]), None, 4),
]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def oracle_case(request):
    _, rmap, w, k = request.param
    model = build_model(rmap, default_root(rmap) if w is None else w, k)
    basis = default_basis(rmap, julia_sample(rmap, 256, seed=0), count=16)
    return rmap, model, basis, k


def _dense_eigvals(model, k, matrix):
    d = np.sqrt(model.levels[k].weights)
    sim = matrix * (d[:, None] / d[None, :])
    return np.linalg.eigvalsh(0.5 * (sim + sim.conj().T))


def _assert_frame_matches_dense(model, basis, k):
    lows, highs = verify_frame_bound(model, basis, k)
    assert lows.shape == highs.shape == (len(basis),)
    for n in range(1, len(basis) + 1):
        eigs = _dense_eigvals(model, k, _frame_matrix(model, basis, n, k))
        assert abs(lows[n - 1] - eigs[0]) <= ORACLE_BOUND
        assert abs(highs[n - 1] - eigs[-1]) <= ORACLE_BOUND


def test_frame_bound_matches_dense(oracle_case):
    _, model, basis, k = oracle_case
    _assert_frame_matches_dense(model, basis, k)


def test_frame_bound_padded_block_matches_dense():
    # Basilica rooted at 0: level 2 holds the two children of 1 and the
    # double child 0 of -1.  Two bumps covering the sphere make the
    # two-child block positive definite, so the single-child block's
    # padding must not show up as a zero eigenvalue.
    rmap = builtin_map("basilica")
    model = build_model(rmap, 0, 2)
    assert model.dims() == (1, 2, 3)
    partition = PartitionOfUnity(2, [_RawBump(SpherePoint(2 + 0j), 3.0, 2),
                                     _RawBump(SpherePoint(-2 + 1j), 3.0, 2)])
    basis = [BasisElement(i, b, partition) for i, b in enumerate(partition.bumps)]
    lows, _ = verify_frame_bound(model, basis, 2)
    assert lows[1] > 1e-3
    _assert_frame_matches_dense(model, basis, 2)


# The closed-form spectrum of a 2x2 block and LAPACK's each err by a few
# ulps of the block's largest entry.  Over a million seeded blocks of each
# kind below the two stayed within 4.2 eps of it; they may differ by this
# many.
CLOSED_FORM_EPS = 6


def _two_by_two(a, b, c):
    blocks = np.empty(a.shape + (2, 2))
    blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1] = a, b, b, c
    return blocks


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("kind", ["random", "b=0", "a=c", "rank-one"])
def test_closed_form_spectra_match_lapack(kind, scale):
    rng = np.random.default_rng(60)
    a, b, c = rng.standard_normal((3, 2000))
    if kind == "b=0":
        b = np.zeros_like(b)
    elif kind == "a=c":
        c = a
    elif kind == "rank-one":
        a, b, c = a * a, a * b, b * b
    blocks = _two_by_two(a, b, c) * scale
    low, high = operator_lab._block_extremes(blocks, np.full(len(a), 2))
    eigs = np.linalg.eigvalsh(blocks)
    bound = CLOSED_FORM_EPS * np.finfo(float).eps * np.abs(blocks).max(axis=(1, 2))
    assert np.all(np.abs(low - eigs[:, 0]) <= bound)
    assert np.all(np.abs(high - eigs[:, 1]) <= bound)


def test_closed_form_reads_a_one_child_block_as_its_first_entry():
    blocks = _two_by_two(np.array([0.25, 0.5]), np.array([0.0, 0.125]),
                         np.array([0.0, 0.375]))
    low, high = operator_lab._block_extremes(blocks, np.array([1, 2]))
    assert (low[0], high[0]) == (0.25, 0.25)
    assert low[1] < 0.375 < 0.5 < high[1]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_a_non_finite_block_has_nan_extremes(width):
    # LAPACK reads 0.5 I_3 with a NaN first entry as the finite spectrum
    # {0, -0, 0.5}; every width must read it as NaN, so the record fails.
    blocks = np.stack([0.5 * np.eye(width)] * 2)
    blocks[0, 0, 0] = np.nan
    low, high = operator_lab._block_extremes(blocks, np.full(2, width))
    assert np.isnan(low[0]) and np.isnan(high[0])
    assert (low[1], high[1]) == (0.5, 0.5)


def test_running_frame_sum_matches_the_products(oracle_case):
    _, model, basis, k = oracle_case
    V = model.frame_vectors(basis, k)
    sums = list(map(np.copy, operator_lab._frame_sums(model, basis, k)))
    assert len(sums) == len(basis) + 1
    for n, blocks in enumerate(sums):
        product = V[..., :n] @ V[..., :n].transpose(0, 2, 1)
        assert np.max(np.abs(blocks - product), initial=0.0) <= ORACLE_BOUND
        assert np.array_equal(operator_lab._frame_sum(model, basis, n, k), blocks)
    # Readers get a view of the running array that they cannot write to.
    view = next(operator_lab._frame_sums(model, basis, k))
    with pytest.raises(ValueError):
        view[0, 0, 0] = 1.0


def test_vanishing_gap_matches_dense(oracle_case):
    rmap, model, basis, k = oracle_case
    lvl = model.levels[k]
    centre = SpherePoint(complex(lvl.points[0]))
    vf = VanishingFunction.bump(rmap, centre, 0.5, branch_points=[])
    M, residual = verify_vanishing_reconstruction(model, basis, vf, k)
    gap = np.diag(model.values(vf.fn, k)) @ (_frame_matrix(model, basis, M, k)
                                              - np.eye(lvl.size))
    assert abs(residual - model.weighted_norm(k, gap)) <= ORACLE_BOUND


def test_representation_matches_dense(oracle_case):
    rmap, model, _, k = oracle_case
    rng = np.random.default_rng(38)
    prev = model.levels[k - 1]
    comp = model.composition_matrix(k)
    adj = model.adjoint_matrix(k)
    for _ in range(5):
        xi = tf.random_polynomial(rng, 2)
        eta = tf.random_polynomial(rng, 2)
        a = tf.random_polynomial(rng, 1)
        _, residual2 = verify_representation(model, xi, eta, a, k)
        xv, ev = model.values(xi, k), model.values(eta, k)
        pairing = adj @ ((np.conj(xv) * ev)[:, None] * comp)
        ip_vals = inner_product(rmap, xi, eta).evaluate(prev.points, prev.inf_mask)
        dense = model.weighted_norm(k - 1, pairing - np.diag(ip_vals))
        assert abs(residual2 - dense) <= ORACLE_BOUND


# ----------------------------------------------------------------------
# reconstruction sums over the cover against the dense products
#
# The library sums each point's terms over the elements nonzero there.
# The products over every element below are the reference, held bit for
# bit: the terms they add besides are +-0 wherever the values are finite.


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _dense_reconstruction(U, fib, U_fiber, values):
    return (U * fib.average(U_fiber * values)).sum(axis=0)


def _add_at_adjoint(model, k, v):
    """The adjoint as an unbuffered scatter-add over the parents."""
    lvl, prev = model.levels[k], model.levels[k - 1]
    out = np.zeros(v.shape[:-1] + (prev.size,), dtype=complex)
    np.add.at(out.T, lvl.parent, (v * lvl.weights).T)
    return out / prev.weights


ADJOINT_CASES = [
    # name, map, root, level, whether some sibling block is padded
    ("quad", builtin_map("quad"), 1, 6, False),
    # level 2 holds the two children of 1 and the double child 0 of -1
    ("basilica@0", builtin_map("basilica"), 0, 2, True),
    ("basilica", builtin_map("basilica"), None, 7, False),
    # the one-child parent -2 -> 0 pads a block on every level from 2 on
    ("chebyshev@2", builtin_map("chebyshev"), 2, 6, True),
    ("z^3", RationalMap([0, 0, 0, 1], [1]), None, 4, False),
]


@pytest.mark.parametrize("case", ADJOINT_CASES, ids=[c[0] for c in ADJOINT_CASES])
def test_apply_adjoint_keeps_the_add_at_bits(case):
    _, rmap, w, k, padded = case
    model = build_model(rmap, default_root(rmap) if w is None else w, k)
    _, counts = model.siblings(k)
    assert (counts < counts.max()).any() == padded
    rng = np.random.default_rng(54)
    n = model.dim(k)
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    batch = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    batch[1] = signed_zeros + 1j * signed_zeros[::-1]
    for v in (batch, batch[0], batch.real, signed_zeros):
        got, want = model.apply_adjoint(k, v), _add_at_adjoint(model, k, v)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("case", ADJOINT_CASES, ids=[c[0] for c in ADJOINT_CASES])
def test_sibling_slots_number_each_parents_children_in_level_order(case):
    _, rmap, w, k, _ = case
    model = build_model(rmap, default_root(rmap) if w is None else w, k)
    slot, counts = model.siblings(k)
    parent = model.levels[k].parent
    for j in range(counts.size):
        assert slot[parent == j].tolist() == list(range(counts[j]))


COVER_CASES = [
    ("quad", builtin_map("quad"), 1, 8),
    ("basilica", builtin_map("basilica"), None, 8),
    # sector ladders at the critical point 0, which the Julia set meets
    ("chebyshev", builtin_map("chebyshev"), -1, 8),
    # padded sibling blocks below the one-child parent -2 -> 0
    ("chebyshev@2", builtin_map("chebyshev"), 2, 8),
    ("z^3", RationalMap([0, 0, 0, 1], [1]), None, 5),
]


@pytest.fixture(scope="module", params=COVER_CASES, ids=[c[0] for c in COVER_CASES])
def cover_case(request):
    _, rmap, w, k = request.param
    model = build_model(rmap, default_root(rmap) if w is None else w, k)
    sample = julia_sample(rmap, 384, seed=0)
    basis = default_basis(rmap, sample, count=32)
    return rmap, model, sample, basis, k


def _prefixes(basis, cover):
    """N = 0, 1, half and all; some cover columns are padded, and the
    middle two mask some layers."""
    counts = (0, 1, len(basis) // 2, len(basis))
    assert (cover.value == 0.0).any()
    assert ((cover.index >= counts[2]) & (cover.value != 0.0)).any()
    return counts


def test_key_lemma_paths_keep_the_dense_bits(cover_case):
    _, model, _, basis, k = cover_case
    lvl, fib = model.levels[k], model.sibling_fibers(k)
    partition = basis[0].partition
    U = partition.member_matrix(lvl.points, lvl.inf_mask)
    U_fiber = partition.member_matrix(fib.points, fib.inf_mask)
    cover = lvl.cover(partition)
    rng = np.random.default_rng(52)
    for N in _prefixes(basis, cover):
        a = tf.random_polynomial(rng, 2)
        av, values = model.values(a, k), a.evaluate(fib.powers)
        # Path A applies the frame sum's sibling blocks, which add in
        # their own order, so it is held to the dense product within a
        # bound; path B keeps the dense product's bits.
        path_a = operator_lab._apply_frame_sum(model, basis, N, k, av)
        dense_a = _frame_matrix(model, basis, N, k) @ av
        assert np.max(np.abs(path_a - dense_a)) <= ORACLE_BOUND
        path_b = reconstruction_sum(cover, fib, fib.cover(partition), values, N)
        dense_b = _dense_reconstruction(U[:N], fib, U_fiber[:N], values)
        assert np.array_equal(_bits(path_b), _bits(dense_b))
        assert verify_key_lemma(model, basis, N, a, k) == float(np.max(np.abs(path_a - path_b)))


def test_frame_vectors_keep_the_dense_bits(cover_case):
    _, model, _, basis, k = cover_case
    lvl, prev = model.levels[k], model.levels[k - 1]
    U = basis[0].partition.member_matrix(lvl.points, lvl.inf_mask)
    V = model.frame_vectors(basis, k)
    slot, counts = model.siblings(k)
    dense = np.zeros((prev.size, int(counts.max()), len(basis)))
    dense[lvl.parent, slot] = (U * np.sqrt(lvl.weights / prev.weights[lvl.parent])).T
    assert np.array_equal(_bits(V), _bits(dense))


def test_reconstruct_keeps_the_dense_bits(cover_case):
    rmap, _, sample, basis, _ = cover_case
    pts, infs = sample.points, sample.inf_mask
    fib = sample.sibling_fibers
    partition = basis[0].partition
    U = partition.member_matrix(pts, infs)
    U_fiber = partition.member_matrix(fib.points, fib.inf_mask)
    rng = np.random.default_rng(53)
    for N in _prefixes(basis, sample.cover(partition)):
        xi = tf.random_polynomial(rng, 2)
        table, residual = reconstruct(rmap, basis, xi, N, sample)
        dense = _dense_reconstruction(U[:N], fib, U_fiber[:N], xi.evaluate(fib.powers))
        assert np.array_equal(_bits(table.evaluate(pts, infs)), _bits(dense))
        assert residual == float(np.max(np.abs(dense - xi.evaluate(pts, infs))))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_value_on_the_sibling_fibers_fails_the_checks():
    rmap = builtin_map("basilica")
    model = build_model(rmap, default_root(rmap), 8)
    sample = julia_sample(rmap, 384, seed=0)
    basis = default_basis(rmap, sample, count=32)
    partition = basis[0].partition

    def spiked(points):
        # Infinite at one sibling that is not a point of the set itself,
        # so only the fiber side of each sum sees it.
        fib = points.sibling_fibers
        spike = fib.points[~np.isin(fib.points, points.points)][0]
        return tf.TestFunction.from_callable(
            lambda z, inf_mask: np.where(z == spike, np.inf, 0.5 + 0.25j), "spike")

    xi, a = spiked(sample), spiked(model.levels[8])
    assert np.isnan(reconstruct(rmap, basis, xi, len(basis), sample)[1])
    assert np.isnan(verify_key_lemma(model, basis, len(basis), a, 8))
    for points, f in ((sample, xi), (model.levels[8], a)):
        fib = points.sibling_fibers
        values = f.evaluate(fib.points, fib.inf_mask)
        sparse = reconstruction_sum(points.cover(partition), fib, fib.cover(partition),
                                    values, len(basis))
        dense = _dense_reconstruction(partition.member_matrix(points.points, points.inf_mask),
                                      fib, partition.member_matrix(fib.points, fib.inf_mask),
                                      values)
        assert np.isnan(dense).any()
        assert np.array_equal(np.isnan(sparse), np.isnan(dense))


# ----------------------------------------------------------------------
# batched trials against a frozen copy of the per-trial loops
#
# The suite once drew and checked one polynomial at a time, evaluating
# each term as ``c * points**j * conj(points)**k``.  The copy below keeps
# that code, so the batched suite is held to its records bit for bit.


def _frozen_polynomial(rng, max_degree):
    coeffs = {}
    for j in range(max_degree + 1):
        for k in range(max_degree + 1 - j):
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[(j, k)] = c * 3.0 ** (-(j + k))
    return coeffs


def _frozen_values(coeffs, points):
    out = np.zeros(points.shape, dtype=complex)
    zbar = np.conj(points)
    for (j, k), c in coeffs.items():
        out += c * points**j * zbar**k
    return out


def _frozen_conj_product(xi, eta):
    prod = {}
    for (j1, k1), c1 in xi.items():
        for (j2, k2), c2 in eta.items():
            key = (k1 + j2, j1 + k2)
            prod[key] = prod.get(key, 0j) + c1.conjugate() * c2
    return prod


def _frozen_sum(terms):
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _frozen_isometry(model, f, k):
    fv = _frozen_values(f, model.levels[k - 1].points)
    cf = fv[model.levels[k].parent]
    lhs = _frozen_sum(cf * np.conj(cf) * model.levels[k].weights).real
    rhs = _frozen_sum(fv * np.conj(fv) * model.levels[k - 1].weights).real
    return abs(lhs - rhs)


def _frozen_covariance(model, a, f, g, k):
    lvl = model.levels[k]
    prev = model.levels[k - 1]
    av = _frozen_values(a, lvl.points)
    fv = _frozen_values(f, prev.points)
    gv = _frozen_values(g, prev.points)
    lhs_terms = av * fv[lvl.parent] * np.conj(gv[lvl.parent]) * lvl.weights
    fib = model.fibers(k)
    la = fib.average(_frozen_values(a, fib.points))
    rhs_terms = la * fv * np.conj(gv) * prev.weights
    return abs(_frozen_sum(lhs_terms) - _frozen_sum(rhs_terms))


def _frozen_representation(model, xi, eta, a, k):
    points = model.levels[k].points
    av = _frozen_values(a, points)
    xv = _frozen_values(xi, points)
    comp = np.ones(model.dim(k))
    x_comp = xv * comp
    a_x = av * xv
    residual1 = float(np.max(np.abs(av * x_comp - a_x * comp)))
    pairing = model.apply_adjoint(k, np.conj(xv) * _frozen_values(eta, points))
    fib = model.fibers(k)
    ip_vals = fib.average(_frozen_values(_frozen_conj_product(xi, eta), fib.points))
    return residual1, float(np.max(np.abs(pairing - ip_vals)))


def _frozen_records(rmap, m, seed, trials, pairs):
    w = default_root(rmap)
    rng = np.random.default_rng(seed)
    model = build_model(rmap, w, m)
    worst = max(_frozen_isometry(model, _frozen_polynomial(rng, 2), m)
                for _ in range(trials))
    records = [operator_lab._record("isometry", rmap, w, m, m, worst)]
    worst = 0.0
    for _ in range(trials):
        a, f, g = (_frozen_polynomial(rng, 2) for _ in range(3))
        worst = max(worst, _frozen_covariance(model, a, f, g, m))
    records.append(operator_lab._record("covariance", rmap, w, m, m, worst))
    _frozen_polynomial(rng, 2)          # transfer_two_path's symbol
    worst = 0.0
    exact = True
    for _ in range(pairs):
        xi, eta, a = _frozen_polynomial(rng, 2), _frozen_polynomial(rng, 2), \
            _frozen_polynomial(rng, 1)
        r1, r2 = _frozen_representation(model, xi, eta, a, m)
        exact = exact and (r1 == 0.0)
        worst = max(worst, r2)
    records.append(operator_lab._record("representation", rmap, w, m, m, worst,
                                        extra_pass=exact))
    return records


BATCH_CASES = [(name, m, seed) for name, m in (("quad", 9), ("basilica", 9), ("chebyshev", 8))
               for seed in (1, 2, 3)]


@pytest.mark.parametrize("name,m,seed,trials,pairs",
                         [case + (100, 50) for case in BATCH_CASES]
                         # 2048 atoms: chunks of 7 rows, three of them per identity
                         + [("basilica", 11, 2, 20, 10)])
def test_batched_trials_keep_the_per_trial_records(name, m, seed, trials, pairs):
    rmap = builtin_map(name)
    report = verification_suite(rmap, m=m, seed=seed, trials=trials, pairs=pairs,
                                identities=["isometry", "covariance", "transfer_two_path",
                                            "representation"])
    batched = [rec for rec in report["results"] if rec["identity"] != "transfer_two_path"]
    assert json.dumps(batched) == json.dumps(_frozen_records(rmap, m, seed, trials, pairs))
    # The suite's chunks hold several rows but not every trial.
    chunks = operator_lab._chunks(trials, 2 ** m)
    assert 1 < chunks[0].stop < trials


def test_a_polynomial_and_its_one_row_batch_agree_above_the_elision_size():
    # 16384 atoms: numpy would run ``x * temporary`` in place and swapped.
    basilica = builtin_map("basilica")
    lvl = build_model(basilica, default_root(basilica), 14).levels[14]
    assert lvl.size == 16384
    rng = np.random.default_rng(5)
    batch = tf.random_polynomials(rng, 3, 2)
    values = batch.evaluate(lvl.points, lvl.inf_mask)
    for i in range(3):
        single = batch[i].evaluate(lvl.points, lvl.inf_mask)
        assert single.tobytes() == values[i].tobytes()
        assert single.tobytes() == batch[i:i + 1].evaluate(lvl.points)[0].tobytes()
    product = (batch.conj() * batch[::-1]).evaluate(lvl.points)
    for i in range(3):
        single = (batch[i].conj() * batch[2 - i]).evaluate(lvl.points)
        assert single.tobytes() == product[i].tobytes()


def test_batched_checks_return_the_worst_row(cheb_model):
    rng = np.random.default_rng(37)
    a, f, g = tf.random_trials(rng, 6, (2, 2, 1))
    assert verify_isometry(cheb_model, f, 8) == max(verify_isometry(cheb_model, f[i], 8)
                                                    for i in range(6))
    assert verify_covariance(cheb_model, a, f, g, 8) == max(
        verify_covariance(cheb_model, a[i], f[i], g[i], 8) for i in range(6))
    r1, r2 = verify_representation(cheb_model, a, f, g, 8)
    rows = [verify_representation(cheb_model, a[i], f[i], g[i], 8) for i in range(6)]
    assert r1 == 0.0 and all(row[0] == 0.0 for row in rows)
    assert r2 == max(row[1] for row in rows)


@pytest.mark.parametrize("trials,pairs", [(0, 5), (5, 0), (-1, 5)])
def test_suite_rejects_fewer_than_one_trial(quad_map, trials, pairs):
    with pytest.raises(ValueError, match="trials >= 1 and pairs >= 1"):
        verification_suite(quad_map, m=3, trials=trials, pairs=pairs,
                           identities=["covariance"])
