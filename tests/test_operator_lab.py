import gc
import json
import math
import sys
import weakref

import numpy as np
import pytest

from lyubich_lab.bimodule_basis import (PartitionOfUnity, VanishingFunction, _RawBump,
                                        basis_to_json, julia_sample, reconstruct)
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


def _sizes(model):
    return model.parents.size, model.children.size


def test_model_dims(quad_map, cheb):
    # A model is one step: its parents and children are the tree's last two
    # levels, and a depth-0 tree takes no step.
    assert _sizes(build_model(quad_map, 1, 2)) == (2, 4)
    assert _sizes(build_model(cheb, 2, 2)) == (2, 3)
    assert _sizes(build_model(quad_map, 0.5 + 0.5j, 1)) == (1, 2)
    with pytest.raises(ValueError, match="depth m >= 1"):
        build_model(quad_map, 0.5 + 0.5j, 0)


def _trees_built(monkeypatch):
    """The trees that ``operator_lab`` enumerates from now on, in order."""
    trees = []
    enumerate_tree = operator_lab.iterated_preimages

    def keeping(*args):
        trees.append(enumerate_tree(*args))
        return trees[-1]

    monkeypatch.setattr(operator_lab, "iterated_preimages", keeping)
    return trees


def test_level_weights_sum_to_one(monkeypatch, cheb):
    trees = _trees_built(monkeypatch)
    model = build_model(cheb, -1, 8)
    [tree] = trees
    assert model.parents is tree.levels[7] and model.children is tree.levels[8]
    for lvl in tree.levels:
        assert np.sum(lvl.weights) == pytest.approx(1.0, abs=1e-15)


def test_adjoint_pairing(quad_map):
    model = build_model(quad_map, 1, 5)
    rng = np.random.default_rng(31)
    for _ in range(30):
        f = rng.normal(size=model.parents.size) \
            + 1j * rng.normal(size=model.parents.size)
        g = rng.normal(size=model.children.size) \
            + 1j * rng.normal(size=model.children.size)
        comp = model.composition_matrix()
        lhs = operator_lab._inner(model.children, comp @ f, g)
        rhs = operator_lab._inner(model.parents, f, model.apply_adjoint(g))
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_composition_is_identity(cheb):
    for k in (1, 4, 8):
        model = build_model(cheb, -1, k)
        comp = model.composition_matrix()
        adj = model.adjoint_matrix()
        eye = adj @ comp
        assert np.max(np.abs(eye - np.eye(model.parents.size))) < 1e-12


def test_range_projection_idempotent(cheb):
    model = build_model(cheb, -1, 6)
    comp = model.composition_matrix()
    proj = comp @ model.adjoint_matrix()
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_adjoint_realizes_transfer(cheb):
    model = build_model(cheb, -1, 7)
    rng = np.random.default_rng(32)
    f = tf.random_polynomial(rng, 2)
    fv = f.evaluate(model.children.powers)
    via_model = model.apply_adjoint(fv)
    prev = model.parents
    for j in range(prev.size):
        y = INFINITY if prev.inf_mask[j] else SpherePoint(complex(prev.points[j]))
        assert abs(via_model[j] - apply_transfer(cheb, f, y)) < 1e-10


# ----------------------------------------------------------------------
# identity residuals


def test_isometry_constant(quad_map):
    assert verify_isometry(build_model(quad_map, 1, 3), tf.ONE) == 0.0


def test_isometry_coordinate(quad_map):
    assert verify_isometry(build_model(quad_map, 1, 2), tf.Z) < 1e-14


@pytest.mark.parametrize("name,w", [("quad", 1), ("basilica", 0.25),
                                    ("chebyshev", -1)])
def test_isometry_random_trials(name, w):
    model = build_model(builtin_map(name), w, 8)
    rng = np.random.default_rng(33)
    for _ in range(100):
        assert verify_isometry(model, tf.random_polynomial(rng, 2)) < 1e-12


def test_covariance_reduces_to_isometry(cheb):
    rng = np.random.default_rng(34)
    f = tf.random_polynomial(rng, 2)
    assert verify_covariance(build_model(cheb, -1, 5), tf.ONE, f, f) < 1e-12


def test_covariance_symmetric_symbol(quad_map):
    # transfer of z vanishes for the squaring map, so both sides are zero
    assert verify_covariance(build_model(quad_map, 1, 4), tf.Z, tf.ONE, tf.ONE) < 1e-13


def test_covariance_random_trials(cheb_model):
    rng = np.random.default_rng(35)
    for _ in range(100):
        a = tf.random_polynomial(rng, 2)
        f = tf.random_polynomial(rng, 2)
        g = tf.random_polynomial(rng, 2)
        assert verify_covariance(cheb_model, a, f, g) < 1e-10


def test_representation_identity_element(quad_model):
    r1, r2 = verify_representation(quad_model, tf.ONE, tf.ONE, tf.ONE)
    assert r1 == 0.0
    assert r2 < 1e-12


def test_representation_coordinate(quad_model):
    r1, r2 = verify_representation(quad_model, tf.Z, tf.Z, tf.ONE)
    assert r1 == 0.0
    assert r2 < 1e-10


def test_representation_random_pairs(cheb_model):
    rng = np.random.default_rng(36)
    for _ in range(50):
        xi = tf.random_polynomial(rng, 2)
        eta = tf.random_polynomial(rng, 2)
        a = tf.random_polynomial(rng, 1)
        r1, r2 = verify_representation(cheb_model, xi, eta, a)
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
    parent = model.children.parent
    i, j = 0, int(np.flatnonzero(parent != parent[0])[0])

    def worst(model):
        rng = np.random.default_rng(44)
        cov = rep = 0.0
        for _ in range(5):
            a, f, g = (tf.random_polynomial(rng, 2) for _ in range(3))
            cov = max(cov, verify_covariance(model, a, f, g))
            rep = max(rep, verify_representation(model, f, g, a)[1])
        return cov, rep

    cov, rep = worst(model)
    assert cov <= TOLERANCES["covariance"] and rep <= TOLERANCES["representation"]
    parent[[i, j]] = parent[[j, i]]
    cov, rep = worst(model)
    assert cov > TOLERANCES["covariance"]
    assert rep > TOLERANCES["representation"]


def test_key_lemma_zero_terms(quad_model, quad_basis):
    assert verify_key_lemma(quad_model, quad_basis, 0, tf.ONE) == 0.0


def test_key_lemma_paths_agree(quad_model, quad_basis):
    assert verify_key_lemma(quad_model, quad_basis, 8, tf.ONE) < 1e-10


def test_key_lemma_random_symbol(cheb_model, cheb_basis):
    rng = np.random.default_rng(37)
    a = tf.random_polynomial(rng, 2)
    assert verify_key_lemma(cheb_model, cheb_basis, len(cheb_basis), a) < 1e-10


def test_frame_bound_zero(quad_map):
    lows, highs = verify_frame_bound(build_model(quad_map, 1, 6), PartitionOfUnity(2, []))
    assert lows.shape == highs.shape == (0,)


def test_frame_bound_full_basis(quad_map, quad_basis):
    model = build_model(quad_map, 1, 6)
    lows, highs = verify_frame_bound(model, quad_basis)
    assert lows.shape == highs.shape == (len(quad_basis),)
    assert -1e-10 <= lows[-1]
    assert 0.9 <= highs[-1] <= 1 + 1e-8


def test_frame_bound_monotone(quad_model, quad_basis):
    _, highs = verify_frame_bound(quad_model, quad_basis)
    previous = 0.0
    for top in highs:
        assert top >= previous - 1e-10
        previous = top


def test_frame_bound_beyond_4096_atoms(quad_map, quad_basis):
    model = build_model(quad_map, 1, 13)
    assert model.children.size == 8192
    lows, highs = verify_frame_bound(model, quad_basis)
    assert -1e-10 <= lows[-1] and highs[-1] <= 1 + 1e-8


def test_vanishing_zero_function(cheb_model, cheb_basis):
    M, residual = verify_vanishing_reconstruction(
        cheb_model, cheb_basis,
        VanishingFunction(tf.TestFunction.constant(0.0), SpherePoint(0j), 0.0))
    assert (M, residual) == (0, 0.0)


def test_vanishing_full_circle(quad_map, quad_model, quad_basis):
    # no branch points meet the circle, so any bump is certified
    vf = VanishingFunction.bump(quad_map, 1.0, 0.5, branch_points=[])
    M, residual = verify_vanishing_reconstruction(quad_model, quad_basis, vf)
    assert M <= len(quad_basis)
    assert residual < 1e-2


def test_vanishing_tail_chebyshev(cheb, cheb_model, cheb_basis):
    sample = julia_sample(cheb, 384, seed=0)
    vf = VanishingFunction.bump(cheb, 1.0, 0.5, sample=sample)
    M, residual = verify_vanishing_reconstruction(cheb_model, cheb_basis, vf)
    assert 0 < M < len(cheb_basis)
    assert residual < 1e-2


def test_vanishing_no_tail_raises(cheb_model, cheb_basis, cheb):
    sample = julia_sample(cheb, 384, seed=0)
    # a support blanket over the whole interval meets every element
    wide = VanishingFunction(fn=tf.ONE, support_center=SpherePoint(0j),
                             support_radius=10.0)
    with pytest.raises(NoVanishingTail):
        verify_vanishing_reconstruction(cheb_model, cheb_basis, wide)


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
    # The samples read a tree that keeps two branches per node from the
    # default root, which for a map of degree 2 is the enumerated tree.
    # At the default root the model and both default samples (384 and 1000
    # points, depth 12) read one tree, built to depth max(m, 12); z^3, or
    # another root, builds the model's tree and the samples' tree.
    depths = []
    grow = preimage_solver._grow

    def counting(rmap, root, m, *args, **kwargs):
        depths.append(m)
        return grow(rmap, root, m, *args, **kwargs)

    monkeypatch.setattr(preimage_solver, "_grow", counting)
    basilica = builtin_map("basilica")
    cube = RationalMap([0, 0, 0, 1], [1], name="z^3")
    for rmap, w, m, want in ((basilica, None, 4, [12]), (basilica, None, 13, [13]),
                             (basilica, 0.1 + 0.7j, 4, [4, 12]), (cube, None, 4, [4, 12])):
        depths.clear()
        verification_suite(rmap, w, m=m, seed=3, trials=2, pairs=2, basis_count=8,
                           identities=["transfer_unitality", "key_lemma"])
        assert depths == want

    depths.clear()
    both = bimodule_basis._julia_samples(quad_map, (384, 1000), 3)
    assert depths == [12]
    for sample, size in zip(both, (384, 1000)):
        alone = julia_sample(quad_map, size, 3)
        np.testing.assert_array_equal(sample.points, alone.points)
        np.testing.assert_array_equal(sample.inf_mask, alone.inf_mask)
        assert sample.method == alone.method


def test_the_model_keeps_no_level_below_its_depth(monkeypatch):
    # The suite's tree is built to depth 12 for the samples; once they are
    # read, the suite at m=9 holds levels 0..9, and level 12 is freed
    # before the invariance check pushes its first level forward.
    basilica = builtin_map("basilica")
    trees = _trees_built(monkeypatch)
    seen = []
    push = operator_lab.pushforward

    def pushing(mu, rmap):
        if trees:
            level12 = weakref.ref(trees.pop().levels[12])
            gc.collect()
            seen.append(level12() is None)
            seen.append(tuple(lvl.size for lvl in sys._getframe(1).f_locals["levels"]))
        return push(mu, rmap)

    monkeypatch.setattr(operator_lab, "pushforward", pushing)
    report = verification_suite(basilica, m=9, seed=1, trials=2, pairs=2)
    assert report["all_pass"]
    assert seen == [True, tuple(2 ** k for k in range(10))]


@pytest.mark.parametrize("name,w,m", [("basilica", None, 9), ("basilica", None, 13),
                                      ("basilica", 0.1 + 0.7j, 9), ("z^3", None, 5),
                                      ("basilica", None, 5)])
def test_one_tree_and_one_net_keep_every_report_byte(monkeypatch, name, w, m):
    rmap = RationalMap([0, 0, 0, 1], [1], name="z^3") if name == "z^3" else builtin_map(name)
    report = json.dumps(verification_suite(rmap, w, m=m, seed=1))
    # The samples from a sampled tree of their own, and a fresh net for
    # the radius and another for the basis.
    monkeypatch.setattr(operator_lab, "_samples_read_enumerated_tree", lambda rmap, w: False)
    monkeypatch.setattr(bimodule_basis.JuliaSample, "net", property(
        lambda s: bimodule_basis._Net(s.points, s.inf_mask, s.half_norms)))
    assert json.dumps(verification_suite(rmap, w, m=m, seed=1)) == report


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
        assert verify_covariance(model, a, f, g) <= TOLERANCES["covariance"]
        assert verify_representation(model, f, g, a)[1] <= TOLERANCES["representation"]
    assert len(calls) == 1


def test_levels_own_what_the_checks_read(monkeypatch, quad_map):
    trees = _trees_built(monkeypatch)
    model = build_model(quad_map, 1, 8)
    [tree] = trees
    assert model.parents is tree.levels[7] and model.children is tree.levels[8]


@pytest.mark.parametrize("name,w", [("basilica", None), ("quad", 0.3 + 0.4j), ("z^3", None)],
                         ids=["basilica", "quad-off-the-line", "z^3"])
def test_a_model_from_a_deeper_tree_is_the_same_step(name, w):
    # Basilica's levels are mirrored at its default root; quad's are not
    # rooted off the real line.  The model keeps the deeper tree's own
    # level objects, and every check reads them as it reads its own tree's.
    rmap = RationalMap([0, 0, 0, 1], [1], name="z^3") if name == "z^3" else builtin_map(name)
    w = default_root(rmap) if w is None else w
    m = 6
    deep = preimage_solver.iterated_preimages(rmap, w, m + 3)
    shared = build_model(rmap, w, m, tree=deep)
    assert shared.parents is deep.levels[m - 1] and shared.children is deep.levels[m]
    basis = default_basis(rmap, julia_sample(rmap, 256, seed=0), count=16)
    a, f, g = tf.random_trials(np.random.default_rng(62), 4, (2, 2, 1))

    def residuals(model):
        vf = VanishingFunction.bump(rmap, model.children.atom(0), 0.5, branch_points=[])
        return [verify_isometry(model, f), verify_covariance(model, a, f, g),
                verify_representation(model, f, g, a),
                verify_key_lemma(model, basis, len(basis) // 2, a[0]),
                verify_frame_bound(model, basis),
                verify_vanishing_reconstruction(model, basis, vf)]

    got, want = residuals(shared), residuals(build_model(rmap, w, m))
    assert all(np.array_equal(_bits(x), _bits(y)) for x, y in zip(got, want))


@pytest.mark.parametrize("m,tree", [
    (8, lambda q: preimage_solver.iterated_preimages(q, 1, 5)),
    (3, lambda q: preimage_solver.iterated_preimages(q, 0.5j, 5)),
    (3, lambda q: preimage_solver.iterated_preimages(q, complex(1, -0.0), 5)),
    (3, lambda q: preimage_solver.sampled_tree(q, 1, 5, 1, seed=0)),
    (3, lambda q: preimage_solver.iterated_preimages(builtin_map("quad"), 1, 5))],
    ids=["shallower", "another-root", "minus-zero-root", "fewer-branches", "another-map"])
def test_a_model_rejects_a_tree_of_another_step(quad_map, m, tree):
    with pytest.raises(ValueError, match="enumerated tree rooted at"):
        build_model(quad_map, 1, m, tree(quad_map))


def test_a_model_takes_a_sampled_tree_that_keeps_every_branch(quad_map):
    # It is the enumerated tree; a deeper tree is taken as well (see
    # test_a_model_from_a_deeper_tree_is_the_same_step).
    tree = preimage_solver.sampled_tree(quad_map, 1, 5, 2, seed=0)
    model = build_model(quad_map, 1, 3, tree)
    assert model.parents is tree.levels[2] and model.children is tree.levels[3]


@pytest.mark.parametrize("name,m,want", [
    ("basilica", 5, [("enumerated", 12)]),
    ("z^3", 5, [("enumerated", 8), ("sampled", 12)]),
    ("basilica", 9, [("enumerated", 12)])])
def test_a_suite_enumerates_one_tree(monkeypatch, name, m, want):
    # The model, the invariance and two-path checks and, at a degree-2
    # map's default root, the Julia samples all read one enumerated tree.
    rmap = RationalMap([0, 0, 0, 1], [1], name="z^3") if name == "z^3" else builtin_map(name)
    built = []
    grow = preimage_solver._grow

    def counting(rmap, root, m, branches, budget, rng=None):
        built.append(("enumerated" if rng is None else "sampled", m))
        return grow(rmap, root, m, branches, budget, rng)

    monkeypatch.setattr(preimage_solver, "_grow", counting)
    report = verification_suite(rmap, m=m, seed=1, trials=4, pairs=3, basis_count=8,
                                sample_size=128, unitality_points=40)
    assert report["all_pass"]
    assert built == want


def test_suite_solves_each_point_set_and_evaluates_each_partition_once(monkeypatch):
    solved, members = [], []
    gather, member_matrix = preimage_solver.gather_fibers, PartitionOfUnity.member_matrix

    def counting(rmap, points, inf_mask):
        # The tree builders solve each level to grow the next one; the
        # checks solve a level again on their own, and only they count.
        if sys._getframe(1).f_code is not preimage_solver._grow.__code__:
            solved.append(points)
        return gather(rmap, points, inf_mask)

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
    assert len({id(points) for points in solved}) == len(solved) == 4
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
    _, rmap, w, m = request.param
    model = build_model(rmap, default_root(rmap) if w is None else w, m)
    basis = default_basis(rmap, julia_sample(rmap, 256, seed=0), count=16)
    return rmap, model, basis


def _dense_eigvals(model, matrix):
    d = np.sqrt(model.children.weights)
    sim = matrix * (d[:, None] / d[None, :])
    return np.linalg.eigvalsh(0.5 * (sim + sim.conj().T))


def _assert_frame_matches_dense(model, basis):
    lows, highs = verify_frame_bound(model, basis)
    assert lows.shape == highs.shape == (len(basis),)
    for n in range(1, len(basis) + 1):
        eigs = _dense_eigvals(model, _frame_matrix(model, basis, n))
        assert abs(lows[n - 1] - eigs[0]) <= ORACLE_BOUND
        assert abs(highs[n - 1] - eigs[-1]) <= ORACLE_BOUND


def test_frame_bound_matches_dense(oracle_case):
    _, model, basis = oracle_case
    _assert_frame_matches_dense(model, basis)


def test_frame_bound_padded_block_matches_dense():
    # Basilica rooted at 0: level 2 holds the two children of 1 and the
    # double child 0 of -1.  Two bumps covering the sphere make the
    # two-child block positive definite, so the single-child block's
    # padding must not show up as a zero eigenvalue.
    rmap = builtin_map("basilica")
    model = build_model(rmap, 0, 2)
    assert _sizes(model) == (2, 3)
    basis = PartitionOfUnity(2, [_RawBump(SpherePoint(2 + 0j), 3.0),
                                 _RawBump(SpherePoint(-2 + 1j), 3.0)])
    lows, _ = verify_frame_bound(model, basis)
    assert lows[1] > 1e-3
    _assert_frame_matches_dense(model, basis)


@pytest.mark.parametrize("name", ["basilica", "chebyshev"])
def test_a_basis_is_one_partition_whose_prefixes_are_counts(name):
    # The basis is the partition itself: its length is its element count,
    # its JSON export holds one record per element, and reconstruction and
    # every check take a prefix as the count N.  Chebyshev's basis holds
    # sector ladders.
    rmap = builtin_map(name)
    model = build_model(rmap, default_root(rmap), 6)
    sample = julia_sample(rmap, 256, seed=0)
    basis = default_basis(rmap, sample, count=16)
    assert isinstance(basis, PartitionOfUnity)
    assert len(basis) == len(basis.bumps) == len(json.loads(basis_to_json(basis)))
    assert any(b.sector for b in basis.bumps) == (name == "chebyshev")
    lows, highs = verify_frame_bound(model, basis)
    assert lows.shape == highs.shape == (len(basis),)
    xi = tf.random_polynomial(np.random.default_rng(61), 2)
    lvl = model.children
    for N in (0, 1, len(basis) // 2, len(basis)):
        values, _ = reconstruct(rmap, basis, xi, N, sample)
        assert values.shape == (sample.size,)
        assert verify_key_lemma(model, basis, N, xi) <= TOLERANCES["key_lemma"]
        if N == 0:
            vf = VanishingFunction(tf.TestFunction.constant(0.0), SpherePoint(0j), 0.0)
        else:
            eigs = _dense_eigvals(model, _frame_matrix(model, basis, N))
            assert abs(lows[N - 1] - eigs[0]) <= ORACLE_BOUND
            assert abs(highs[N - 1] - eigs[-1]) <= ORACLE_BOUND
            # A small bump on the centre of element N - 1 meets it, so its
            # tail starts at N or later.
            vf = VanishingFunction.bump(rmap, basis.bumps[N - 1].center, 1e-3,
                                        branch_points=[])
        meets = vf.meets_elements(basis)
        M, residual = verify_vanishing_reconstruction(model, basis, vf)
        assert M == (np.flatnonzero(meets)[-1] + 1 if meets.any() else 0) >= N
        gap = np.diag(vf.fn.evaluate(lvl.powers)) @ (_frame_matrix(model, basis, M)
                                                     - np.eye(lvl.size))
        assert abs(residual - model.weighted_norm(lvl, gap)) <= ORACLE_BOUND


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
    _, model, basis = oracle_case
    V = model.frame_vectors(basis)
    sums = list(map(np.copy, operator_lab._frame_sums(model, basis)))
    assert len(sums) == len(basis) + 1
    for n, blocks in enumerate(sums):
        product = V[..., :n] @ V[..., :n].transpose(0, 2, 1)
        assert np.max(np.abs(blocks - product), initial=0.0) <= ORACLE_BOUND
        assert np.array_equal(operator_lab._frame_sum(model, basis, n), blocks)
    # Readers get a view of the running array that they cannot write to.
    view = next(operator_lab._frame_sums(model, basis))
    with pytest.raises(ValueError):
        view[0, 0, 0] = 1.0


def test_vanishing_gap_matches_dense(oracle_case):
    rmap, model, basis = oracle_case
    lvl = model.children
    centre = SpherePoint(complex(lvl.points[0]))
    vf = VanishingFunction.bump(rmap, centre, 0.5, branch_points=[])
    M, residual = verify_vanishing_reconstruction(model, basis, vf)
    gap = np.diag(vf.fn.evaluate(lvl.powers)) @ (_frame_matrix(model, basis, M)
                                                 - np.eye(lvl.size))
    assert abs(residual - model.weighted_norm(lvl, gap)) <= ORACLE_BOUND


def test_representation_matches_dense(oracle_case):
    rmap, model, _ = oracle_case
    rng = np.random.default_rng(38)
    prev = model.parents
    comp = model.composition_matrix()
    adj = model.adjoint_matrix()
    for _ in range(5):
        xi = tf.random_polynomial(rng, 2)
        eta = tf.random_polynomial(rng, 2)
        a = tf.random_polynomial(rng, 1)
        _, residual2 = verify_representation(model, xi, eta, a)
        xv, ev = xi.evaluate(model.children.powers), eta.evaluate(model.children.powers)
        pairing = adj @ ((np.conj(xv) * ev)[:, None] * comp)
        ip_vals = inner_product(rmap, xi, eta).evaluate(prev.points, prev.inf_mask)
        dense = model.weighted_norm(prev, pairing - np.diag(ip_vals))
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


def _add_at_adjoint(model, v):
    """The adjoint as an unbuffered scatter-add over the parents."""
    lvl, prev = model.children, model.parents
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
    _, rmap, w, m, padded = case
    model = build_model(rmap, default_root(rmap) if w is None else w, m)
    _, counts = model.siblings
    assert (counts < counts.max()).any() == padded
    rng = np.random.default_rng(54)
    n = model.children.size
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    batch = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    batch[1] = signed_zeros + 1j * signed_zeros[::-1]
    for v in (batch, batch[0], batch.real, signed_zeros):
        got, want = model.apply_adjoint(v), _add_at_adjoint(model, v)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("case", ADJOINT_CASES, ids=[c[0] for c in ADJOINT_CASES])
def test_sibling_slots_number_each_parents_children_in_level_order(case):
    _, rmap, w, m, _ = case
    model = build_model(rmap, default_root(rmap) if w is None else w, m)
    slot, counts = model.siblings
    parent = model.children.parent
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
    _, rmap, w, m = request.param
    model = build_model(rmap, default_root(rmap) if w is None else w, m)
    sample = julia_sample(rmap, 384, seed=0)
    basis = default_basis(rmap, sample, count=32)
    return rmap, model, sample, basis


def _prefixes(basis, cover):
    """N = 0, 1, half and all; some cover columns are padded, and the
    middle two mask some layers."""
    counts = (0, 1, len(basis) // 2, len(basis))
    assert (cover.value == 0.0).any()
    assert ((cover.index >= counts[2]) & (cover.value != 0.0)).any()
    return counts


def test_key_lemma_paths_keep_the_dense_bits(cover_case):
    _, model, _, basis = cover_case
    lvl = model.children
    fib = lvl.sibling_fibers
    U = basis.member_matrix(lvl.points, lvl.inf_mask)
    U_fiber = basis.member_matrix(fib.points, fib.inf_mask)
    cover = lvl.cover(basis)
    rng = np.random.default_rng(52)
    for N in _prefixes(basis, cover):
        a = tf.random_polynomial(rng, 2)
        av, values = a.evaluate(lvl.powers), a.evaluate(fib.powers)
        # Path A applies the frame sum's sibling blocks, which add in
        # their own order, so it is held to the dense product within a
        # bound; path B keeps the dense product's bits.
        path_a = operator_lab._apply_frame_sum(model, basis, N, av)
        dense_a = _frame_matrix(model, basis, N) @ av
        assert np.max(np.abs(path_a - dense_a)) <= ORACLE_BOUND
        path_b = reconstruction_sum(lvl, basis, a, N)
        dense_b = _dense_reconstruction(U[:N], fib, U_fiber[:N], values)
        assert np.array_equal(_bits(path_b), _bits(dense_b))
        assert verify_key_lemma(model, basis, N, a) == float(np.max(np.abs(path_a - path_b)))


def test_frame_vectors_keep_the_dense_bits(cover_case):
    _, model, _, basis = cover_case
    lvl, prev = model.children, model.parents
    U = basis.member_matrix(lvl.points, lvl.inf_mask)
    V = model.frame_vectors(basis)
    slot, counts = model.siblings
    dense = np.zeros((prev.size, int(counts.max()), len(basis)))
    dense[lvl.parent, slot] = (U * np.sqrt(lvl.weights / prev.weights[lvl.parent])).T
    assert np.array_equal(_bits(V), _bits(dense))


def test_reconstruct_keeps_the_dense_bits(cover_case):
    rmap, _, sample, basis = cover_case
    pts, infs = sample.points, sample.inf_mask
    fib = sample.sibling_fibers
    U = basis.member_matrix(pts, infs)
    U_fiber = basis.member_matrix(fib.points, fib.inf_mask)
    rng = np.random.default_rng(53)
    for N in _prefixes(basis, sample.cover(basis)):
        xi = tf.random_polynomial(rng, 2)
        values, residual = reconstruct(rmap, basis, xi, N, sample)
        dense = _dense_reconstruction(U[:N], fib, U_fiber[:N], xi.evaluate(fib.powers))
        assert np.array_equal(_bits(values), _bits(dense))
        assert residual == float(np.max(np.abs(dense - xi.evaluate(pts, infs))))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_value_on_the_sibling_fibers_fails_the_checks():
    rmap = builtin_map("basilica")
    model = build_model(rmap, default_root(rmap), 8)
    sample = julia_sample(rmap, 384, seed=0)
    basis = default_basis(rmap, sample, count=32)

    def spiked(points):
        # Infinite at one sibling that is not a point of the set itself,
        # so only the fiber side of each sum sees it.
        fib = points.sibling_fibers
        spike = fib.points[~np.isin(fib.points, points.points)][0]
        return tf.TestFunction.from_callable(
            lambda z, inf_mask: np.where(z == spike, np.inf, 0.5 + 0.25j), "spike")

    xi, a = spiked(sample), spiked(model.children)
    assert np.isnan(reconstruct(rmap, basis, xi, len(basis), sample)[1])
    assert np.isnan(verify_key_lemma(model, basis, len(basis), a))
    for points, f in ((sample, xi), (model.children, a)):
        fib = points.sibling_fibers
        values = f.evaluate(fib.points, fib.inf_mask)
        sparse = reconstruction_sum(points, basis, f, len(basis))
        dense = _dense_reconstruction(basis.member_matrix(points.points, points.inf_mask),
                                      fib, basis.member_matrix(fib.points, fib.inf_mask),
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


def _frozen_isometry(model, f):
    fv = _frozen_values(f, model.parents.points)
    cf = fv[model.children.parent]
    lhs = _frozen_sum(cf * np.conj(cf) * model.children.weights).real
    rhs = _frozen_sum(fv * np.conj(fv) * model.parents.weights).real
    return abs(lhs - rhs)


def _frozen_covariance(model, a, f, g):
    lvl = model.children
    prev = model.parents
    av = _frozen_values(a, lvl.points)
    fv = _frozen_values(f, prev.points)
    gv = _frozen_values(g, prev.points)
    lhs_terms = av * fv[lvl.parent] * np.conj(gv[lvl.parent]) * lvl.weights
    fib = prev.fibers
    la = fib.average(_frozen_values(a, fib.points))
    rhs_terms = la * fv * np.conj(gv) * prev.weights
    return abs(_frozen_sum(lhs_terms) - _frozen_sum(rhs_terms))


def _frozen_representation(model, xi, eta, a):
    points = model.children.points
    av = _frozen_values(a, points)
    xv = _frozen_values(xi, points)
    comp = np.ones(model.children.size)
    x_comp = xv * comp
    a_x = av * xv
    residual1 = float(np.max(np.abs(av * x_comp - a_x * comp)))
    pairing = model.apply_adjoint(np.conj(xv) * _frozen_values(eta, points))
    fib = model.parents.fibers
    ip_vals = fib.average(_frozen_values(_frozen_conj_product(xi, eta), fib.points))
    return residual1, float(np.max(np.abs(pairing - ip_vals)))


def _frozen_records(rmap, m, seed, trials, pairs):
    w = default_root(rmap)
    rng = np.random.default_rng(seed)
    model = build_model(rmap, w, m)
    worst = max(_frozen_isometry(model, _frozen_polynomial(rng, 2))
                for _ in range(trials))
    records = [operator_lab._record("isometry", rmap, w, m, worst)]
    worst = 0.0
    for _ in range(trials):
        a, f, g = (_frozen_polynomial(rng, 2) for _ in range(3))
        worst = max(worst, _frozen_covariance(model, a, f, g))
    records.append(operator_lab._record("covariance", rmap, w, m, worst))
    _frozen_polynomial(rng, 2)          # transfer_two_path's symbol
    worst = 0.0
    exact = True
    for _ in range(pairs):
        xi, eta, a = _frozen_polynomial(rng, 2), _frozen_polynomial(rng, 2), \
            _frozen_polynomial(rng, 1)
        r1, r2 = _frozen_representation(model, xi, eta, a)
        exact = exact and (r1 == 0.0)
        worst = max(worst, r2)
    records.append(operator_lab._record("representation", rmap, w, m, worst,
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
    lvl = build_model(basilica, default_root(basilica), 14).children
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
    assert verify_isometry(cheb_model, f) == max(verify_isometry(cheb_model, f[i])
                                                 for i in range(6))
    assert verify_covariance(cheb_model, a, f, g) == max(
        verify_covariance(cheb_model, a[i], f[i], g[i]) for i in range(6))
    r1, r2 = verify_representation(cheb_model, a, f, g)
    rows = [verify_representation(cheb_model, a[i], f[i], g[i]) for i in range(6)]
    assert r1 == 0.0 and all(row[0] == 0.0 for row in rows)
    assert r2 == max(row[1] for row in rows)


@pytest.mark.parametrize("trials,pairs", [(0, 5), (5, 0), (-1, 5)])
def test_suite_rejects_fewer_than_one_trial(quad_map, trials, pairs):
    with pytest.raises(ValueError, match="trials >= 1 and pairs >= 1"):
        verification_suite(quad_map, m=3, trials=trials, pairs=pairs,
                           identities=["covariance"])


@pytest.mark.parametrize("basis_count", [0, -3])
def test_suite_rejects_a_basis_count_below_one(quad_map, basis_count):
    with pytest.raises(ValueError, match=f"basis_count >= 1, .*basis_count={basis_count}"):
        verification_suite(quad_map, m=3, basis_count=basis_count)
