import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from lyubich_lab.errors import BudgetExceeded, ExceptionalRoot
from lyubich_lab.lyubich_measure import default_root
from lyubich_lab.preimage_solver import (gather_fibers, iterated_preimages, preimages,
                                         sampled_tree)
from lyubich_lab.rational_map import RationalMap, builtin_map, critical_points
from lyubich_lab.sphere import INFINITY, chordal, chordal_pairs


@pytest.fixture(scope="module")
def quad():
    return builtin_map("quad")


@pytest.fixture(scope="module")
def cheb():
    return builtin_map("chebyshev")


# ----------------------------------------------------------------------
# single fibers


def test_fiber_simple(quad):
    fib = preimages(quad, 4)
    assert [(p.value, m) for p, m in fib.atoms] == [(-2, 1), (2, 1)]


def test_fiber_double_root(cheb):
    fib = preimages(cheb, -2)
    assert len(fib.atoms) == 1
    point, mult = fib.atoms[0]
    assert mult == 2 and abs(point.value) < 1e-12


def test_fiber_at_infinity(quad):
    fib = preimages(quad, INFINITY)
    assert len(fib.atoms) == 1
    assert fib.atoms[0][0].infinite and fib.atoms[0][1] == 2


def test_fiber_with_degree_drop():
    rmap = RationalMap([0, 1], [1, 0, 1])      # z / (z^2 + 1), fiber of 0 hits infinity
    fib = preimages(rmap, 0)
    kinds = {(p.infinite, m) for p, m in fib.atoms}
    assert kinds == {(False, 1), (True, 1)}


def test_fiber_mass_random_maps():
    rng = np.random.default_rng(12)
    for _ in range(50):
        degree = int(rng.integers(2, 7))
        num = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        den = rng.normal(size=int(rng.integers(1, degree + 2)))
        try:
            rmap = RationalMap(num, den)
        except Exception:
            continue
        w = complex(rng.normal(), rng.normal())
        assert sum(m for _, m in preimages(rmap, w).atoms) == rmap.degree


def test_fiber_residuals(quad, cheb):
    rng = np.random.default_rng(13)
    for rmap in (quad, cheb):
        for _ in range(20):
            w = complex(rng.normal(scale=2), rng.normal(scale=2))
            for p, _ in preimages(rmap, w).atoms:
                from lyubich_lab.rational_map import evaluate
                image = evaluate(rmap, p)
                assert chordal(image, w) < 1e-9


# ----------------------------------------------------------------------
# full trees


def test_tree_fourth_roots_of_unity(quad):
    tree = iterated_preimages(quad, 1, 2)
    atoms = tree.level_atoms(2)
    points = sorted((p.value for p, _ in atoms), key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(points, [-1, -1j, 1j, 1], atol=1e-12)
    assert all(mult == 1 for _, mult in atoms)


def test_tree_rejects_exceptional_root(quad):
    with pytest.raises(ExceptionalRoot):
        iterated_preimages(quad, 0, 2)
    with pytest.raises(ExceptionalRoot):
        iterated_preimages(quad, INFINITY, 1)


def test_tree_hand_solved_chebyshev(cheb):
    tree = iterated_preimages(cheb, 2, 2)
    atoms = {round(p.value.real, 9): m for p, m in tree.level_atoms(2)}
    assert atoms == {-2.0: 1, 0.0: 2, 2.0: 1}
    assert int(tree.level(2).cum.sum()) == 4


def _shifted_power(e):
    """(z - 1)^e - 3: one critical point of index e at 1, over -3."""
    return RationalMap([math.comb(e, k) * (-1) ** (e - k) - 3 * (k == 0)
                        for k in range(e + 1)], [1])


@pytest.mark.parametrize("rmap,root,sizes,critical", [
    # z^3 - 3z + 2 = (z - 1)^2 (z + 2): the fiber over -2 holds two atoms,
    # so the levels hold 1, 2, 5, 14 atoms, not 3**k.
    (RationalMap([0, -3, 0, 1], [1]), -2, [1, 2, 5, 14], [(-1, 2), (1, 2), ("inf", 3)]),
] + [(_shifted_power(e), -3, [1, 1, e, e * e], [(1, e), ("inf", e)]) for e in range(3, 8)],
    ids=["z^3-3z"] + [f"e={e}" for e in range(3, 8)])
def test_double_root_over_critical_value_is_one_atom(rmap, root, sizes, critical):
    # Each critical point is listed once with its true index, at its exact
    # place to rounding, and the fiber over its value holds it as one atom
    # of that multiplicity.
    got = critical_points(rmap)
    assert [d.index for d in got] == [e for _, e in critical]
    for d, (point, _) in zip(got, critical):
        if point == "inf":
            assert d.point.infinite
        else:
            assert abs(d.point.value - point) <= 1e-12
    crit = {d.point.value: d.index for d in got if not d.point.infinite}
    multiple = [(p.value, m) for p, m in preimages(rmap, root).atoms if m > 1]
    assert len(multiple) == 1 and crit.get(multiple[0][0]) == multiple[0][1]
    tree = iterated_preimages(rmap, root, 3)
    assert [tree.atom_count(k) for k in range(4)] == sizes


def test_critical_value_rule_is_a_backward_error_test():
    # Within the residual tolerance of the critical value -2 the double
    # root is one atom at the critical point 1; 1e-9 away it is two simple
    # roots 2e-5 apart.
    cubic = RationalMap([0, -3, 0, 1], [1])
    near = preimages(cubic, -2 + 1e-14).atoms
    assert [m for _, m in near] == [1, 2]
    assert near[1][0].value == 1 and abs(near[0][0].value + 2) <= 1e-12
    off = preimages(cubic, -2 + 1e-9).atoms
    assert [m for _, m in off] == [1, 1, 1]
    assert 1e-5 < abs(off[2][0].value - off[1][0].value) < 1e-4


@pytest.mark.parametrize("name", ["quad", "basilica", "chebyshev"])
def test_level_mass_exact(name):
    rmap = builtin_map(name)
    tree = iterated_preimages(rmap, 1.3 + 0.4j, 8)
    for k in range(9):
        assert int(tree.level(k).cum.sum()) == rmap.degree ** k


def test_tree_consistency_with_fibers(cheb):
    tree = iterated_preimages(cheb, 0.5, 5)
    for k in range(5):
        lvl, nxt = tree.level(k), tree.level(k + 1)
        for j in range(lvl.size):
            fib = preimages(cheb, lvl.atom(j))
            children = [i for i in range(nxt.size) if nxt.parent[i] == j]
            assert len(children) == len(fib.atoms)
            got = sorted((nxt.atom(i).sort_key(), int(nxt.cum[i])) for i in children)
            want = sorted((p.sort_key(), m * int(lvl.cum[j])) for p, m in fib.atoms)
            for (gk, gm), (wk, wm) in zip(got, want):
                assert gm == wm
                assert np.allclose(gk[1:], wk[1:], atol=1e-8)


def test_chain_rule_cumulative(cheb):
    tree = iterated_preimages(cheb, 2, 6)
    for k in range(1, 7):
        lvl, prev = tree.level(k), tree.level(k - 1)
        for i in range(lvl.size):
            fib = preimages(cheb, prev.atom(int(lvl.parent[i])))
            edge = next(m for p, m in fib.atoms
                        if chordal(p, lvl.atom(i)) < 1e-8)
            assert int(lvl.cum[i]) == edge * int(prev.cum[int(lvl.parent[i])])


def test_budget_enforced(quad):
    with pytest.raises(BudgetExceeded):
        iterated_preimages(quad, 1, 30)


def _carried_error(tree, rmap):
    """The first-order error bound of every atom of a polynomial map's
    tree, carried down to its deepest level: a child z of w carries
    e(z) = (u s(w) + e(w)) / |R'(z)|, where s(w) is the fiber polynomial's
    scale sum |h_k| max(1, |z|)^k and u the unit roundoff, and a merged
    atom sits on a listed critical point, to e = u."""
    u = np.finfo(float).eps / 2
    coeffs = rmap.num
    slope = polyder(coeffs)
    err = np.zeros(1)
    for k in range(1, tree.depth + 1):
        lvl, prev = tree.level(k), tree.level(k - 1)
        z, w = lvl.points, prev.points[lvl.parent]
        scale = polyval(np.maximum(1.0, np.abs(z)), np.abs(coeffs)) + np.abs(w)
        merged = lvl.cum != prev.cum[lvl.parent]
        derivative = np.where(merged, 1.0, np.abs(polyval(z, slope)))
        err = np.where(merged, u, (u * scale + err[lvl.parent]) / derivative)
    return err


def _roots_of_unity(k, count):
    """exp(2 pi i k / count) within about 3 u: the angle is reduced in
    integers to at most pi/4 from a quarter turn, which is then made
    exactly."""
    quarter, rest = np.divmod(4 * k, count)
    flip = 2 * rest > count
    angle = np.pi / 2 * np.where(flip, count - rest, rest) / count
    cos, sin = np.cos(angle), np.sin(angle)
    return np.where(flip, sin + 1j * cos, cos + 1j * sin) * np.array([1, 1j, -1, -1j])[quarter]


@pytest.mark.parametrize("degree, m", [(2, 8), (2, 14), (2, 20), (3, 6), (3, 9), (3, 12)])
def test_power_map_levels_are_the_roots_of_unity(degree, m):
    """Known answer: level m of z^n rooted at 1 is the n^m-th roots of
    unity, each a simple atom.  |R'(z)| = n on the unit circle, so the
    carried bound (see ``_carried_error``) stays near 2u / (n - 1) at
    every depth.  Every atom is held to 4 e(z) plus 4 u for the rounding
    of the reference values themselves."""
    u = np.finfo(float).eps / 2
    rmap = RationalMap([0] * degree + [1], [1])
    tree = iterated_preimages(rmap, 1, m)
    level = tree.level(m)
    count = degree ** m
    assert level.size == count and not level.inf_mask.any()
    assert level.cum.tolist() == [1] * count
    k = np.rint(np.angle(level.points) * count / (2 * np.pi)).astype(np.int64) % count
    assert np.bincount(k, minlength=count).tolist() == [1] * count
    error = np.abs(level.points - _roots_of_unity(k, count))
    assert np.all(error <= 4 * _carried_error(tree, rmap) + 4 * u)


CHEB3 = RationalMap([0, -3, 0, 1], [1], name="z^3-3z")
NEWTON = RationalMap([1, 0, 0, 2], [0, 0, 3], name="newton z^3-1")
RABBIT = RationalMap([-0.1226 + 0.7449j, 0, 1], [1], name="rabbit")
Z3C = RationalMap([0.3 + 0.5j, 0, 0, 1], [1], name="z^3+0.3+0.5i")


@pytest.mark.parametrize("make", [
    lambda: iterated_preimages(RABBIT, default_root(RABBIT), 12),
    lambda: iterated_preimages(builtin_map("basilica"), default_root(builtin_map("basilica")), 12),
    lambda: iterated_preimages(NEWTON, INFINITY, 7),
    lambda: sampled_tree(CHEB3, -2, 9, branches_per_node=2, seed=3),
    lambda: sampled_tree(NEWTON, INFINITY, 8, branches_per_node=2, seed=2),
], ids=["full", "mirrored", "mirrored@inf", "sampled", "sampled@inf"])
def test_parent_never_decreases_along_a_level(make):
    # Each level holds its parents' children together, parents in order.
    tree = make()
    for k in range(1, tree.depth + 1):
        parent = tree.level(k).parent
        assert np.all(np.diff(parent) >= 0)
        assert 0 <= parent[0] and parent[-1] < tree.atom_count(k - 1)


@pytest.mark.parametrize("rmap,root,m", [
    (RABBIT, None, 12), (Z3C, None, 7),
    (builtin_map("quad"), complex(np.exp(2j * np.pi * 0.3)), 12),
    (builtin_map("chebyshev"), -1, 12),
], ids=["rabbit", "z^3+0.3+0.5i", "quad@e^0.6pi i", "chebyshev@-1"])
def test_a_level_is_the_fiber_table_of_the_level_above(rmap, root, m):
    """A level with no atom below the real line is solved whole, so level
    k + 1 is ``gather_fibers`` over level k, bit for bit: every level of a
    tree that is not mirrored (a map with a non-real coefficient, a real
    map rooted off the real line) and of a real-line tree.  The tree's
    levels are the tables of the backward orbit that transfer_power
    averages over."""
    tree = iterated_preimages(rmap, default_root(rmap) if root is None else root, m)
    for k in range(m):
        lvl, nxt = tree.level(k), tree.level(k + 1)
        fib = gather_fibers(rmap, lvl.points, lvl.inf_mask)
        assert nxt.points.tobytes() == fib.points.tobytes()
        assert nxt.inf_mask.tolist() == fib.inf_mask.tolist()
        assert nxt.parent.tolist() == np.repeat(np.arange(lvl.size), np.diff(fib.offsets)).tolist()
        assert nxt.cum.tolist() == (fib.mult * lvl.cum[nxt.parent]).tolist()


@pytest.mark.parametrize("rmap,root,phase,m", [
    (CHEB3, -2, (1, 2), 7), (CHEB3, -2, (1, 2), 10),
    (builtin_map("chebyshev"), 2, (0, 1), 12), (builtin_map("chebyshev"), 2, (0, 1), 16),
    (builtin_map("chebyshev"), -1, (1, 3), 8), (builtin_map("chebyshev"), -1, (1, 3), 14),
    (builtin_map("chebyshev"), -1, (1, 3), 20),
], ids=["z^3-3z@-2,m=7", "z^3-3z@-2,m=10", "chebyshev@2,m=12", "chebyshev@2,m=16",
        "chebyshev@-1,m=8", "chebyshev@-1,m=14", "chebyshev@-1,m=20"])
def test_chebyshev_levels_have_their_exact_multiplicities(rmap, root, phase, m):
    """Known answer: T_n(2cos t) = 2cos(nt), so level m of T_n rooted at
    2cos(2 pi p / q), phase = (p, q), holds the values
    x_k = 2cos(2 pi (p / q + k) / N), N = n^m, k = 0 .. N - 1.  Two k give
    one value when their angles are opposite; then T_N(x) - T_N(x_k) has
    a double root there, unless t_k is 0 or pi, so the atom's ``cum``
    counts its k.  Rooted at the critical values +-2 every value but the
    ends is double, and the orbits pass through the critical points
    (R(1) = -2 for z^3 - 3z, R(0) = -2 and R(-2) = 2 for z^2 - 2), where
    the engine merges a double atom.  Rooted at the fixed point -1 of
    z^2 - 2 every value is simple, and atoms near the critical point 0
    carry the worst conditioning.

    Every atom is held to 4 e(z) of the carried bound (see
    ``_carried_error``) plus 4 u for the rounding of the reference values
    themselves."""
    u = np.finfo(float).eps / 2
    p, q = phase
    N = rmap.degree ** m
    tree = iterated_preimages(rmap, root, m)
    for k in range(1, m + 1):
        lvl = tree.level(k)
        assert not lvl.points.imag.any() and not lvl.inf_mask.any()
    err = _carried_error(tree, rmap)
    # x_k in lowest angle terms: the index of 2 pi (p + q k) / (q N) or of
    # its opposite, whichever lies in [0, pi].
    turn = p + q * np.arange(N)
    index, count = np.unique(np.minimum(turn, q * N - turn), return_counts=True)
    exact = 2 * np.cos(2 * np.pi * index / (q * N))
    lvl = tree.level(m)
    assert lvl.size == exact.size
    got = np.argsort(lvl.points.real, kind="stable")
    want = np.argsort(exact, kind="stable")
    assert np.all(np.abs(lvl.points.real[got] - exact[want]) <= 4 * err[got] + 4 * u)
    assert lvl.cum[got].tolist() == count[want].tolist()
    assert int(lvl.cum.sum()) == N


def test_cayley_conjugate_tree_is_the_image_of_the_quadratic_tree():
    """Metamorphic check: R'(u) = (u^2 + 1) / (2u) is M o z^2 o M^-1 for
    the Cayley map M(z) = (z + 1) / (z - 1), so the depth-10 tree of R'
    rooted at M(e^i) is M of the tree of z^2 rooted at e^i.  M sends the
    unit circle to the imaginary axis, and the points of the z^2 levels
    near 1 to |u| up to 2048, where R' is solved far outside the unit
    disc.  Each image atom must have one nearest R' atom of its own,
    with the same running product.  The bound allows a few ulps of the
    chordal scale: M and the two solvers each round in the last bits."""
    cayley = RationalMap([1, 0, 1], [0, 2], name="cayley z^2")
    root = np.exp(1j)

    def m(z):
        return (z + 1) / (z - 1)

    image = iterated_preimages(builtin_map("quad"), root, 10)
    conj = iterated_preimages(cayley, m(root), 10)
    worst = 0.0
    for a, b in zip(image.levels, conj.levels):
        d = chordal_pairs(m(a.points)[:, None], a.inf_mask[:, None], b.points, b.inf_mask)
        near = d.argmin(axis=1)
        assert np.sort(near).tolist() == list(range(b.size))
        assert b.cum[near].tolist() == a.cum.tolist()
        worst = max(worst, d[np.arange(a.size), near].max())
    assert np.abs(conj.level(10).points).max() > 1e3
    assert worst <= 1e-15


# ----------------------------------------------------------------------
# sampled trees


@pytest.mark.parametrize("rmap,w", [
    (builtin_map("quad"), 1),
    (RationalMap([0, -3, 0, 1], [1], name="z^3-3z"), -2),
    (NEWTON, INFINITY),
], ids=["quad", "z^3-3z", "newton"])
def test_sampled_full_branches_is_full_tree(rmap, w):
    full = iterated_preimages(rmap, w, 3)
    samp = sampled_tree(rmap, w, 3, branches_per_node=rmap.degree, seed=42)
    assert samp.weight_base == full.weight_base == rmap.degree
    for k in range(4):
        for name in ("points", "inf_mask", "cum", "parent"):
            np.testing.assert_array_equal(getattr(samp.level(k), name),
                                          getattr(full.level(k), name))


def _same_levels(a, b, depth):
    """Whether levels 0..depth of two trees agree to the bit."""
    return all(getattr(a.level(k), name).tobytes() == getattr(b.level(k), name).tobytes()
               for k in range(depth + 1) for name in ("points", "inf_mask", "cum", "parent"))


@pytest.mark.parametrize("name,w", [("basilica", None), ("quad", None), ("chebyshev", None),
                                    ("basilica", 0.1 + 0.7j)],
                         ids=["basilica", "quad", "chebyshev", "basilica-off-the-real-line"])
def test_a_sampled_tree_keeping_every_branch_is_the_enumerated_tree(name, w):
    # The rule the verification suite relies on when it reads its Julia
    # samples from the model's own tree: at depth 12, the samples' depth.
    rmap = builtin_map(name)
    w = default_root(rmap) if w is None else w
    full = iterated_preimages(rmap, w, 12)
    samp = sampled_tree(rmap, w, 12, branches_per_node=rmap.degree, seed=1)
    assert samp.weight_base == full.weight_base
    assert _same_levels(samp, full, 12)


def test_a_deeper_tree_begins_with_the_shallower_one():
    # Levels 0..m of a depth-d tree are the depth-m tree, so a model of
    # depth m can read them.
    basilica = builtin_map("basilica")
    w = default_root(basilica)
    deep = iterated_preimages(basilica, w, 12)
    for m in (1, 9, 12):
        assert _same_levels(deep, iterated_preimages(basilica, w, m), m)


def test_sampled_tree_draw_order_is_pinned():
    # Two of three fiber slots per node, drawn in node order; each level
    # holds its nodes' children in node order, and the fiber over infinity
    # is the double pole 0 and infinity itself.
    tree = sampled_tree(NEWTON, INFINITY, 3, branches_per_node=2, seed=2)
    r, s, t = 0.793700526, 0.396850263 + 0.687364818j, 0.56126102 + 0.183618349j
    u = 0.71688775 + 1.241686006j
    want = [
        ([0], [True], [1], [-1]),
        ([0, 0], [False, True], [1, 1], [0, 0]),
        ([s.conjugate(), s, 0], [False, False, False], [1, 1, 2], [0, 0, 1]),
        ([-t, u.conjugate(), -t.conjugate(), u, -r, s], [False] * 6,
         [1, 1, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2]),
    ]
    assert tree.weight_base == 2
    for lvl, (points, infinite, cum, parent) in zip(tree.levels, want):
        np.testing.assert_allclose(lvl.points, points, atol=1e-8)
        np.testing.assert_array_equal(lvl.inf_mask, infinite)
        np.testing.assert_array_equal(lvl.cum, cum)
        np.testing.assert_array_equal(lvl.parent, parent)


def test_sampled_single_orbit_on_circle(quad):
    tree = sampled_tree(quad, 1, 20, branches_per_node=1, seed=3)
    assert tree.atom_count(20) == 1
    assert abs(abs(tree.level(20).points[0]) - 1.0) < 1e-9


def test_sampled_deterministic(quad):
    a = sampled_tree(quad, 1, 12, 1, seed=99)
    b = sampled_tree(quad, 1, 12, 1, seed=99)
    np.testing.assert_array_equal(a.level(12).points, b.level(12).points)
    c = sampled_tree(quad, 1, 12, 1, seed=100)
    assert not np.array_equal(a.level(12).points, c.level(12).points)


def test_sampled_level_weights_normalized(cheb):
    tree = sampled_tree(cheb, 0.4, 9, branches_per_node=1, seed=17)
    for k in range(10):
        assert int(tree.level(k).cum.sum()) == tree.weight_base ** k


def test_sampled_tree_statistics_quartic():
    # Monte Carlo mean over seeds approaches the full-tree integral.
    from lyubich_lab.lyubich_measure import integrate, measure_from_tree
    from lyubich_lab import test_functions as tf

    quartic = RationalMap([0, 0, 0, 0, 1], [1], name="z^4")
    full = integrate(measure_from_tree(iterated_preimages(quartic, 1, 5)),
                     tf.RE2).real
    values = [integrate(measure_from_tree(
        sampled_tree(quartic, 1, 5, branches_per_node=2, seed=s)), tf.RE2).real
        for s in range(40)]
    # empirical standard error is about 0.008; allow four of them
    assert abs(np.mean(values) - full) < 0.032


def test_sampled_tree_statistics_single_orbit(quad):
    from lyubich_lab.lyubich_measure import integrate, measure_from_tree
    from lyubich_lab import test_functions as tf

    full = integrate(measure_from_tree(iterated_preimages(quad, 1, 10)),
                     tf.RE2).real
    values = [integrate(measure_from_tree(
        sampled_tree(quad, 1, 10, branches_per_node=1, seed=s)), tf.RE2).real
        for s in range(60)]
    # single-orbit estimator is noisy; empirical standard error about 0.05
    assert abs(np.mean(values) - full) < 0.2


# ----------------------------------------------------------------------
# export


def test_tree_csv_roundtrip(tmp_path, quad):
    tree = iterated_preimages(quad, 1, 3)
    path = tmp_path / "tree.csv"
    tree.to_csv(path)
    import csv
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["level", "re", "im", "cumulative_mult", "parent_index"]
    assert len(rows) - 1 == sum(tree.atom_count(k) for k in range(4))
    total = sum(int(r[3]) for r in rows[1:] if r[0] == "3")
    assert total == 8
