import numpy as np
import pytest

from lyubich_lab.errors import InvalidMapError
from lyubich_lab.rational_map import (RationalMap, branch_index, builtin_map,
                                      critical_points, evaluate, evaluate_array,
                                      exceptional_points, fixed_points)
from lyubich_lab.roots import horner
from lyubich_lab.sphere import INFINITY, as_point, chordal


@pytest.fixture(scope="module")
def quad():
    return builtin_map("quad")


@pytest.fixture(scope="module")
def cheb():
    return builtin_map("chebyshev")


def _random_map(rng, degree):
    while True:
        num = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        den_degree = int(rng.integers(0, degree + 1))
        den = rng.normal(size=den_degree + 1) + 1j * rng.normal(size=den_degree + 1)
        try:
            return RationalMap(num, den)
        except InvalidMapError:
            continue


# ----------------------------------------------------------------------
# construction invariants


def test_degree_below_two_rejected():
    with pytest.raises(InvalidMapError):
        RationalMap([0, 1], [1])          # z
    with pytest.raises(InvalidMapError):
        RationalMap([1], [0, 1])          # 1/z


def test_common_root_rejected():
    # (z^2 - 1) / (z - 1) shares the root 1
    with pytest.raises(InvalidMapError):
        RationalMap([-1, 0, 1], [-1, 1])


def test_zero_denominator_rejected():
    with pytest.raises(InvalidMapError):
        RationalMap([0, 0, 1], [0])


# ----------------------------------------------------------------------
# evaluate


def test_evaluate_simple(quad, cheb):
    assert evaluate(cheb, 3).value == 7
    assert evaluate(quad, INFINITY).infinite
    invsq = RationalMap([1], [0, 0, 1])   # pole behavior of a reciprocal map
    assert evaluate(invsq, 0).infinite
    assert evaluate(invsq, INFINITY).value == 0


def test_evaluate_chart_agreement():
    # The moduli straddle the chart limit, so evaluate takes both charts;
    # each answer must agree with the quotient in either chart.
    ratl = RationalMap([-1, 0, 1], [1, 0, 1])
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = 1e8 * (0.3 + rng.random()) * np.exp(2j * np.pi * rng.random())
        direct = horner(ratl.num, z) / horner(ratl.den, z)
        inverted = horner(ratl._num_rev, 1.0 / z) / horner(ratl._den_rev, 1.0 / z)
        got = evaluate(ratl, z)
        assert not got.infinite
        for value in (direct, inverted):
            assert abs(got.value - value) / max(abs(value), 1e-300) < 1e-10


def test_evaluate_array_matches_scalar(cheb):
    pts = np.array([0, 1 + 2j, -3, 1e9, 2.5j], dtype=complex)
    inf = np.array([False, False, False, False, False])
    out, out_inf = evaluate_array(cheb, pts, inf)
    for i in range(pts.size):
        expected = evaluate(cheb, pts[i])
        assert bool(out_inf[i]) == expected.infinite
        if not expected.infinite:
            assert out[i] == pytest.approx(expected.value, rel=1e-12)
    out, out_inf = evaluate_array(cheb, np.array([0j]), np.array([True]))
    assert out_inf[0]                      # polynomial fixes infinity


# ----------------------------------------------------------------------
# branch index


def test_branch_index_examples(quad, cheb):
    assert branch_index(quad, 0) == 2
    assert branch_index(cheb, 1) == 1
    assert branch_index(quad, INFINITY) == 2
    invsq = RationalMap([1], [0, 0, 1])
    assert branch_index(invsq, 0) == 2


def test_branch_index_reads_the_order_in_either_chart(quad):
    z5 = RationalMap([0, 0, 0, 0, 0, 1], [1])
    assert branch_index(z5, 0) == 5
    assert branch_index(z5, INFINITY) == 5
    assert branch_index(RationalMap([1], [0, 0, 0, 1]), 0) == 3
    # Beyond CHART_LIMIT the index is read in the reciprocal chart at
    # s = 1e-9.  Infinity is a regular point of (z^2 + z)/(z^2 + 1); quad's
    # is critical, and 1e9, 2e-9 chordal from it, is read as that point
    # at the order tolerance, as 1e-9 is read as 0.
    assert branch_index(RationalMap([0, 1, 1], [1, 0, 1]), 1e9) == 1
    assert branch_index(quad, 1e9) == branch_index(quad, 1e-9) == 2
    assert branch_index(quad, 1e5) == 1
    lattes = RationalMap([1, 0, 2, 0, 1], [0, -4, 0, 4])
    data = critical_points(lattes)
    assert [d.index for d in data] == [2] * 6
    for d in data:
        assert branch_index(lattes, d.point) == d.index


def test_branch_index_matches_critical_set(quad, cheb):
    rng = np.random.default_rng(5)
    for rmap in (quad, cheb, _random_map(rng, 3)):
        crit = {tuple(round(v, 6) for v in (d.point.sort_key()))
                for d in critical_points(rmap)}
        # branch index at least two exactly on the critical set
        for d in critical_points(rmap):
            assert branch_index(rmap, d.point) == d.index
            assert d.index >= 2
        for z in (0.37 + 0.11j, -1.03 + 0.71j, 2.2 - 0.9j):
            if tuple(round(v, 6) for v in as_point(z).sort_key()) not in crit:
                assert branch_index(rmap, z) == 1


# ----------------------------------------------------------------------
# critical points


def _local_degree_oracle(rmap, point, eps=1e-5):
    """Finite-difference local degree: |R(c+eps) - R(c)| scales as eps^e."""
    c = point.value if not point.infinite else None
    if c is None:
        f = lambda t: evaluate(rmap, 1.0 / t).value
        base = evaluate(rmap, INFINITY)
    else:
        f = lambda t: evaluate(rmap, c + t).value
        base = evaluate(rmap, c)
    if base.infinite:
        g = f
        f = lambda t: 1.0 / g(t)
        base_value = 0j
    else:
        base_value = base.value
    ratios = []
    for theta in (0.0, 1.0, 2.0):
        d1 = abs(f(eps * np.exp(1j * theta)) - base_value)
        d2 = abs(f(0.5 * eps * np.exp(1j * theta)) - base_value)
        ratios.append(d1 / d2)
    return int(round(np.log2(np.mean(ratios))))


def test_critical_points_quadratics(quad, cheb):
    for rmap in (quad, cheb):
        data = critical_points(rmap)
        assert len(data) == 2
        assert data[0].point.value == 0 and data[0].index == 2
        assert data[1].point.infinite and data[1].index == 2


def test_critical_points_rational_with_oracle():
    ratl = RationalMap([-1, 0, 1], [1, 0, 1])     # (z^2-1)/(z^2+1)
    data = critical_points(ratl)
    assert sum(d.index - 1 for d in data) == 2
    points = {("inf" if d.point.infinite else complex(round(d.point.value.real, 9),
                                                      round(d.point.value.imag, 9))): d.index
              for d in data}
    assert points == {0j: 2, "inf": 2}
    for d in data:
        assert _local_degree_oracle(ratl, d.point) == d.index


def test_riemann_hurwitz_random_maps():
    rng = np.random.default_rng(6)
    for _ in range(30):
        rmap = _random_map(rng, int(rng.integers(2, 6)))
        data = critical_points(rmap)
        assert sum(d.index - 1 for d in data) == 2 * rmap.degree - 2


# ----------------------------------------------------------------------
# exceptional points


def _brute_force_exceptional(rmap):
    """Direct definition scan: points whose two-step backward orbit stays
    inside a singleton chain."""
    from lyubich_lab.preimage_solver import preimages
    out = []
    candidates = [p for p, _ in fixed_points(rmap)]
    # also include two-cycle members reachable from collapsed fibers
    for d in critical_points(rmap):
        if d.index == rmap.degree:
            candidates.append(evaluate(rmap, d.point))
    for p in candidates:
        f1 = preimages(rmap, p).atoms
        if len(f1) != 1:
            continue
        z1 = f1[0][0]
        if chordal(z1, p) < 1e-6:
            out.append(p)
            continue
        f2 = preimages(rmap, z1).atoms
        if len(f2) == 1 and chordal(f2[0][0], p) < 1e-6:
            out.append(p)
            out.append(z1)
    dedup = []
    for p in out:
        if all(chordal(p, q) > 1e-6 for q in dedup):
            dedup.append(p)
    return sorted(dedup, key=lambda q: q.sort_key())


@pytest.mark.parametrize("name,expected", [
    ("quad", [0j, "inf"]),
    ("basilica", ["inf"]),
    ("chebyshev", ["inf"]),
])
def test_exceptional_benchmarks(name, expected):
    rmap = builtin_map(name)
    got = exceptional_points(rmap)
    keys = ["inf" if p.infinite else p.value for p in got]
    assert keys == expected
    brute = _brute_force_exceptional(rmap)
    assert len(brute) == len(got)
    for p, q in zip(got, brute):
        assert chordal(p, q) < 1e-9


def test_exceptional_two_cycle():
    invsq = RationalMap([1], [0, 0, 1])           # 1/z^2 swaps 0 and infinity
    got = exceptional_points(invsq)
    assert len(got) == 2
    assert got[0].value == 0 and got[1].infinite


def test_exceptional_empty_for_noncollapsing():
    zol = RationalMap([-1, 0, 1], [0, 1])         # (z^2-1)/z
    assert exceptional_points(zol) == []


def test_exceptional_at_most_two_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rmap = _random_map(rng, int(rng.integers(2, 5)))
        assert len(exceptional_points(rmap)) <= 2


# ----------------------------------------------------------------------
# fixed points


def test_fixed_points_quad(quad):
    pts = fixed_points(quad)
    finite = [(p.value, lam) for p, lam in pts if not p.infinite]
    assert any(abs(z) < 1e-12 and abs(lam) < 1e-12 for z, lam in finite)
    assert any(abs(z - 1) < 1e-12 and abs(lam - 2) < 1e-10 for z, lam in finite)
    assert any(p.infinite for p, _ in pts)
