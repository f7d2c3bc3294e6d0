import numpy as np
import pytest

from lyubich_lab.bimodule_basis import (BasisElement, PartitionOfUnity,
                                        VanishingFunction, _RawBump,
                                        julia_sample, reconstruct)
from lyubich_lab.errors import NoVanishingTail
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.operator_lab import (TOLERANCES, _frame_matrix, build_model,
                                      default_basis,
                                      verification_suite, verify_covariance,
                                      verify_frame_bound, verify_isometry,
                                      verify_key_lemma, verify_representation,
                                      verify_vanishing_reconstruction)
from lyubich_lab.rational_map import RationalMap, builtin_map
from lyubich_lab.sphere import INFINITY, SpherePoint
from lyubich_lab.transfer_operator import apply_transfer, inner_product
from lyubich_lab import bimodule_basis, operator_lab
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
    for j in range(prev.dim):
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


def test_frame_bound_zero(quad_model, quad_basis):
    assert verify_frame_bound(quad_model, quad_basis, 0, 6) == 0.0


def test_frame_bound_full_basis(quad_map, quad_basis):
    model = build_model(quad_map, 1, 6)
    low, high = verify_frame_bound(model, quad_basis, len(quad_basis), 6,
                                   full=True)
    assert -1e-10 <= low
    assert 0.9 <= high <= 1 + 1e-8


def test_frame_bound_monotone(quad_model, quad_basis):
    previous = 0.0
    for n in range(1, len(quad_basis) + 1):
        top = verify_frame_bound(quad_model, quad_basis, n, 8)
        assert top >= previous - 1e-10
        previous = top


def test_frame_bound_beyond_4096_atoms(quad_map, quad_basis):
    model = build_model(quad_map, 1, 13)
    assert model.dim(13) == 8192
    low, high = verify_frame_bound(model, quad_basis, len(quad_basis), 13,
                                   full=True)
    assert -1e-10 <= low and high <= 1 + 1e-8


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
                             support_radius=10.0, branch_points=(),
                             distances=())
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


def test_suite_builds_no_basis_it_does_not_read():
    # At m=6 the default basis of z^3 - 3z cannot cover its sample
    # (CoverFailure), but invariance never reads the basis.
    cubic = RationalMap([0, -3, 0, 1], [1])
    report = verification_suite(cubic, -2, m=6, identities=["invariance"])
    [record] = report["results"]
    assert record["identity"] == "invariance" and record["pass"]


def test_model_solves_each_level_once(monkeypatch, quad_map):
    calls = []
    gather = operator_lab.gather_fibers

    def counting(*args, **kwargs):
        calls.append(args)
        return gather(*args, **kwargs)

    monkeypatch.setattr(operator_lab, "gather_fibers", counting)
    model = build_model(quad_map, 1, 5)
    rng = np.random.default_rng(3)
    for _ in range(3):
        a, f, g = (tf.random_polynomial(rng, 2) for _ in range(3))
        assert verify_covariance(model, a, f, g, 5) <= TOLERANCES["covariance"]
        assert verify_representation(model, f, g, a, 5)[1] <= TOLERANCES["representation"]
    assert len(calls) == 1


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
    for n in range(1, len(basis) + 1):
        eigs = _dense_eigvals(model, k, _frame_matrix(model, basis, n, k))
        low, high = verify_frame_bound(model, basis, n, k, full=True)
        assert abs(low - eigs[0]) <= ORACLE_BOUND
        assert abs(high - eigs[-1]) <= ORACLE_BOUND


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
    low, _ = verify_frame_bound(model, basis, 2, 2, full=True)
    assert low > 1e-3
    _assert_frame_matches_dense(model, basis, 2)


def test_vanishing_gap_matches_dense(oracle_case):
    rmap, model, basis, k = oracle_case
    lvl = model.levels[k]
    centre = SpherePoint(complex(lvl.points[0]))
    vf = VanishingFunction.bump(rmap, centre, 0.5, branch_points=[])
    M, residual = verify_vanishing_reconstruction(model, basis, vf, k)
    gap = np.diag(model.values(vf.fn, k)) @ (_frame_matrix(model, basis, M, k)
                                              - np.eye(lvl.dim))
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
