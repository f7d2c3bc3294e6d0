import csv
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from lyubich_lab import sphere
from lyubich_lab.bimodule_basis import branch_separation_radius, julia_sample
from lyubich_lab.lyubich_measure import default_root, measure_from_tree
from lyubich_lab.preimage_solver import gather_fibers, iterated_preimages
from lyubich_lab.rational_map import RationalMap, builtin_map
from lyubich_lab.sphere import (INFINITY, SpherePoint, as_point, atom_order, chordal,
                                chordal_pairs, sphere_points, write_csv)


def test_finite_point_rejects_nan():
    with pytest.raises(ValueError):
        SpherePoint(complex(float("nan"), 0.0))


def test_as_point_coercions():
    assert as_point(3).value == 3 + 0j
    assert as_point(INFINITY).infinite
    assert as_point(complex(float("inf"), 0)).infinite


def test_chordal_basic_values():
    assert chordal(0, 0) == 0.0
    assert chordal(INFINITY, INFINITY) == 0.0
    # antipodal pair 0 and infinity
    assert chordal(0, INFINITY) == pytest.approx(2.0)
    # unit circle points: chordal equals euclidean there
    assert chordal(1, -1) == pytest.approx(2.0)
    assert chordal(1, 1j) == pytest.approx(abs(1 - 1j))


def test_chordal_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    pts = [as_point(complex(a, b)) for a, b in rng.normal(scale=3, size=(20, 2))]
    pts.append(INFINITY)
    for p in pts:
        for q in pts:
            assert chordal(p, q) == pytest.approx(chordal(q, p), abs=1e-15)
            for r in pts:
                assert chordal(p, q) <= chordal(p, r) + chordal(r, q) + 1e-12


def test_chordal_inversion_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z, w = rng.normal(size=2) + 1j * rng.normal(size=2)
        if z == 0 or w == 0:
            continue
        d1 = chordal(z, w)
        d2 = chordal(1 / z, 1 / w)
        assert d1 == pytest.approx(d2, rel=1e-12)


def _exact(p, q) -> float:
    """The chordal distance of two points, from 50-digit decimal arithmetic
    on their exact binary values, rounded once to a float."""
    p, q = as_point(p), as_point(q)
    with localcontext() as ctx:
        ctx.prec = 50

        def norm(z):
            return (1 + Decimal(z.real) ** 2 + Decimal(z.imag) ** 2).sqrt()

        if p.infinite or q.infinite:
            return 0.0 if p.infinite and q.infinite else float(
                2 / norm(q.value if p.infinite else p.value))
        gap = ((Decimal(p.value.real) - Decimal(q.value.real)) ** 2
               + (Decimal(p.value.imag) - Decimal(q.value.imag)) ** 2).sqrt()
        return float(2 * gap / (norm(p.value) * norm(q.value)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z,w", [(1e8, 1e8 + 1), (3e5, 3e5 + 1e-10), (3e5j, 3e5j + 1e-10j)])
def test_chordal_keeps_nearby_large_points_to_a_few_ulps(z, w):
    want = _exact(z, w)
    assert chordal(z, w) == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)
    pair = chordal_pairs(np.array([z], dtype=complex), np.array([False]),
                         np.array([w], dtype=complex), np.array([False]))
    assert pair[0] == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)


@pytest.mark.filterwarnings("error")
def test_chordal_huge_moduli():
    assert chordal(1e200, INFINITY) < 1e-150
    assert math.isfinite(chordal(1e200, -1e200))
    assert chordal(1e200, -1e200) < 1e-150
    # The product of the two norms overflows; each divides in turn.
    assert chordal(1e300, 1e9) == 2 / math.hypot(1, 1e9)
    assert chordal(1e9, 1e300) == pytest.approx(2 / math.hypot(1, 1e9), rel=1e-15)
    # The difference itself overflows, unless halved first.
    assert 0 < chordal(1.5e308, -1.5e308) < 1e-300
    assert chordal(1e308, -1) == pytest.approx(2 / math.hypot(1, 1), rel=1e-15)
    got = chordal_pairs(np.array([1e300, 1e9, -1e200], dtype=complex), np.zeros(3, bool),
                        1e9 + 0j, False)
    assert got[0] == chordal(1e300, 1e9)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(2 / math.hypot(1, 1e9), rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_chordal_past_the_largest_modulus():
    # Finite parts, but |z| = 2.1e308 exceeds DBL_MAX: its distance to 0 is
    # about 2, to infinity a subnormal 9.4e-309, and to -z about 4 / |z|.
    z = 1.5e308 + 1.5e308j
    for q in (0, INFINITY, -z, 1.0):
        want = _exact(z, q)
        got = chordal(z, q)
        assert got == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)
        q = as_point(q)
        array = chordal_pairs(np.array([z, 1.0]), np.array([False, False]), q.value, q.infinite)
        assert array[0] == pytest.approx(got, rel=4 * np.finfo(float).eps, abs=0)
        assert array[1] == pytest.approx(_exact(1.0, q), rel=4 * np.finfo(float).eps, abs=0)
    assert 1.9 < chordal(z, 0) and 0 < chordal(z, INFINITY) < 1e-308
    pair = chordal_pairs(np.array([z, -z]), np.array([False, False]),
                         np.array([[0], [z]]), np.array([[False], [False]]))
    assert pair[0, 0] == pytest.approx(2, rel=1e-15) and pair[1, 0] == 0.0


@pytest.mark.filterwarnings("error")
def test_chordal_never_exceeds_the_diameter():
    # The overflow branch divides by each norm in turn, and nearly
    # antipodal pairs z, -1/conj(z) round above 2 unless clamped.
    for z in (1e154 + 1e154j, 1.5e308 + 1.5e308j):
        assert chordal(SpherePoint(z), 0) == 2.0
        assert chordal_pairs(np.array([z]), np.array([False]), 0j, False)[0] == 2.0
    rng = np.random.default_rng(3)
    z = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    z *= np.exp(rng.uniform(-5, 5, 4096))
    no_inf = np.zeros(z.size, bool)
    antipodal = chordal_pairs(z, no_inf, -1 / np.conj(z), no_inf)
    assert antipodal.max() == 2.0 and antipodal.min() > 2.0 - 1e-14
    assert max(chordal(SpherePoint(q), SpherePoint(-1 / np.conj(q))) for q in z[:200]) == 2.0
    assert np.isnan(chordal_pairs(np.array([np.nan]), np.array([False]), 0j, False)[0])


@pytest.mark.filterwarnings("error")
def test_a_pairs_distance_does_not_depend_on_the_other_pairs():
    # The bump tables broadcast a block of points against every centre and
    # take each entry as that pair's distance alone.  A call holding a
    # modulus past 1e153 takes the overflow branch for every pair, and one
    # holding infinity reads the masks for every pair; each pair, in any
    # stretch of any length of the arrays, keeps the bits of its call alone.
    rng = np.random.default_rng(29)
    n = 67
    z, w = ((rng.standard_normal(n) + 1j * rng.standard_normal(n))
            * np.exp(rng.uniform(-8, 8, n)) for _ in range(2))
    z[5], z[11], w[17], w[18] = 1e154 + 1e154j, 1.5e308 - 1e308j, -3e200j, z[18] * (1 + 1e-15)
    z_inf, w_inf = np.zeros(n, bool), np.zeros(n, bool)
    z_inf[[23, 41]] = True
    w_inf[[31, 41]] = True
    alone = np.array([chordal_pairs(z[i:i + 1], z_inf[i:i + 1], w[i:i + 1], w_inf[i:i + 1])[0]
                      for i in range(n)])
    for start in range(8):
        for length in (1, 2, 3, 7, 8, 9, 16, 17, 33, n):
            at = slice(start, start + length)
            got = chordal_pairs(z[at], z_inf[at], w[at], w_inf[at])
            assert got.tobytes() == alone[at].tobytes()
    # The table of every point against every other.
    table = chordal_pairs(z, z_inf, w[:, None], w_inf[:, None])
    for i in range(n):
        row = [chordal_pairs(z[j:j + 1], z_inf[j:j + 1], w[i:i + 1], w_inf[i:i + 1])[0]
               for j in range(n)]
        assert table[i].tobytes() == np.array(row).tobytes()
    # The norms read from a table of half norms are those of the points.
    hz, hw = sphere.half_norm(z), sphere.half_norm(w)
    assert hz.tobytes() == np.array([sphere.half_norm(z[i:i + 1])[0] for i in range(n)]).tobytes()
    assert sphere._chordal(z, z_inf, hz, w, w_inf, hw).tobytes() == alone.tobytes()


def test_chordal_array_matches_the_exact_reference():
    pts = np.array([0, 1 + 1j, -2, 5j, 3e5, -1e8 + 1e8j], dtype=complex)
    for inf in (np.zeros(pts.size, bool), np.arange(pts.size) == 1):
        for q in (as_point(0.5 - 0.5j), INFINITY):
            want = [_exact(INFINITY if f else SpherePoint(p), q) for p, f in zip(pts, inf)]
            np.testing.assert_allclose(chordal_pairs(pts, inf, q.value, q.infinite), want,
                                       rtol=1e-14, atol=0)


def test_separation_radius_equals_a_per_pair_loop():
    """The fiber gaps of ``branch_separation_radius``, taken in one call,
    give the radius that a loop over each fiber's pairs gives.  The fibers
    of z^3 - 3z hold three atoms."""
    rmap = RationalMap([0, -3, 0, 1], [1], name="z^3-3z")
    sample = julia_sample(rmap, 384, seed=1)
    fib = sample.sibling_fibers
    atoms = sphere_points(fib.points, fib.inf_mask)
    gaps = np.array([min((chordal(atoms[a], atoms[b]) for a in range(lo, hi)
                          for b in range(a + 1, hi)), default=np.inf)
                     for lo, hi in zip(fib.offsets[:-1], fib.offsets[1:])])
    assert np.diff(fib.offsets).max() == 3
    dist_crit = sample.critical_distances.min(axis=0)

    def ok(r):
        included = dist_crit > 2 * r
        return included.any() and np.all(gaps[included] > 4 * r)

    lo, hi = 1e-9, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    assert branch_separation_radius(rmap, sample) == lo


def test_sort_key_orders_infinity_last():
    pts = [INFINITY, as_point(1), as_point(-1), as_point(1j)]
    ordered = sorted(pts, key=lambda p: p.sort_key())
    assert ordered[-1].infinite
    assert ordered[0].value == -1


def test_atom_order_is_sort_key_order():
    # Infinity twice, real parts +0.0 and -0.0 (equal as keys, so kept in
    # place), and conjugate pairs with equal real parts.
    pts = [INFINITY, SpherePoint(0.5 - 2j), SpherePoint(complex(-0.0, 1.0)),
           SpherePoint(0.5 + 2j), SpherePoint(complex(0.0, -1.0)), INFINITY,
           SpherePoint(complex(0.0, 1.0)), SpherePoint(-3 + 0j), SpherePoint(0.5 - 2j),
           SpherePoint(complex(-0.0, -1.0)), SpherePoint(0.5 + 0j)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        shuffled = [pts[i] for i in rng.permutation(len(pts))]
        values = np.array([p.value for p in shuffled])
        inf_mask = np.array([p.infinite for p in shuffled])
        want = sorted(range(len(shuffled)), key=lambda i: shuffled[i].sort_key())
        assert atom_order(values, inf_mask).tolist() == want
        # Along the last axis of a stack, row by row.
        stacked = atom_order(np.stack([values, values[::-1]]),
                             np.stack([inf_mask, inf_mask[::-1]]))
        assert stacked[0].tolist() == want
        assert stacked[1].tolist() == sorted(
            range(len(shuffled)), key=lambda i: shuffled[::-1][i].sort_key())


def test_chordal_pairs_match_the_exact_reference():
    rng = np.random.default_rng(5)
    z = (rng.normal(size=400) + 1j * rng.normal(size=400)) * np.exp(rng.uniform(-8, 8, 400))
    w = np.concatenate([z[:100] * (1 + 1e-9j), z[100:200], -z[200:300],
                        rng.normal(size=100) * 1e200])
    w[100:200] = z[100:200]
    z_inf = np.zeros(400, bool)
    w_inf = np.zeros(400, bool)
    z_inf[::7] = True
    w_inf[::11] = True
    z[::7] = 0j
    w[::11] = 0j
    got = chordal_pairs(z, z_inf, w, w_inf)
    want = [_exact(INFINITY if zi else SpherePoint(a), INFINITY if wi else SpherePoint(b))
            for a, zi, b, wi in zip(z, z_inf, w, w_inf)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)


def _lexsort_order(points, inf_mask):
    """The lexsort that ``atom_order`` was, frozen as it was."""
    return np.lexsort((points.imag, np.where(inf_mask, np.inf, points.real)), axis=-1)


def _edge_points(rng, shape):
    """Points and infinity masks drawn from the values fibers and levels
    hold: ±0.0 parts, conjugate pairs, exact ties, NaN empty slots, NaN
    imaginary parts and infinite entries storing 0, inf or NaN."""
    finite = np.array([0.5 + 2j, 0.5 - 2j, complex(0.0, 1.0), complex(-0.0, 1.0),
                       complex(0.0, -0.0), complex(-0.0, 0.0), -3 + 0j, 1e-300 - 1e300j,
                       complex(0.5, np.nan), complex(-1.0, np.nan), np.nan,
                       complex(np.nan, np.nan), complex(np.nan, 2.0)])
    stored_at_infinity = np.array([0j, np.inf, np.nan, complex(np.nan, np.nan)])
    random = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    points = np.where(rng.random(shape) < 0.6, rng.choice(finite, shape), random)
    inf_mask = rng.random(shape) < 0.2
    points[inf_mask] = rng.choice(stored_at_infinity, np.count_nonzero(inf_mask))
    return points, inf_mask


def test_atom_order_keeps_the_lexsort_order():
    rng = np.random.default_rng(12)
    # (rows, n) fiber arrays, as the fiber engine sorts them, and flat levels.
    for shape in [(500, 2), (300, 3), (100, 7), (4000,), (1,), (0,)]:
        points, inf_mask = _edge_points(rng, shape)
        want = _lexsort_order(points, inf_mask)
        assert atom_order(points, inf_mask).tolist() == want.tolist()
        # The conjugates of the same points.
        conj = np.conj(points)
        assert (atom_order(conj, inf_mask).tolist()
                == _lexsort_order(conj, inf_mask).tolist())


def test_atom_order_of_rows_of_two_keeps_the_lexsort_order():
    # Rows of two without a NaN real part compare their keys: ±0.0 parts,
    # conjugate pairs, exact ties, NaN imaginary parts and infinite entries
    # storing 0, inf or NaN.
    rng = np.random.default_rng(13)
    finite = np.array([0.5 + 2j, 0.5 - 2j, complex(0.0, 1.0), complex(-0.0, 1.0),
                       complex(0.0, -0.0), complex(-0.0, 0.0), -3 + 0j,
                       complex(0.5, np.nan), complex(-3.0, np.inf)])
    for shape in [(3000, 2), (2,), (40, 5, 2)]:
        points = rng.choice(finite, shape)
        inf_mask = rng.random(shape) < 0.2
        points[inf_mask] = rng.choice([0j, np.inf, np.nan], np.count_nonzero(inf_mask))
        assert atom_order(points, inf_mask).tolist() == _lexsort_order(points, inf_mask).tolist()


def test_atom_order_keeps_the_lexsort_order_of_a_deep_level():
    basilica = builtin_map("basilica")
    prev = iterated_preimages(basilica, default_root(basilica), 13).level(13)
    fib = gather_fibers(basilica, prev.points, prev.inf_mask)
    shuffle = np.random.default_rng(3).permutation(fib.points.size)
    for points, inf_mask in ((fib.points, fib.inf_mask),
                             (fib.points[shuffle], fib.inf_mask[shuffle])):
        assert points.size == 16384
        assert atom_order(points, inf_mask).tolist() == _lexsort_order(points, inf_mask).tolist()


# ----------------------------------------------------------------------
# CSV export


def _reference_csv(path, header, tables):
    """:func:`write_csv`'s tables written by ``csv.writer``, one row at a
    time, over a list of every point's ``re, im`` cells."""
    def cells(points, inf_mask):
        return [["inf", "inf"] if inf else [repr(z.real), repr(z.imag)]
                for z, inf in zip(points.tolist(), inf_mask.tolist())]

    def columns(ints, size):
        return [[c] * size if np.ndim(c) == 0 else c.tolist() for c in ints]

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for lead, points, inf_mask, tail in tables:
            before, after = columns(lead, points.size), columns(tail, points.size)
            for i, re_im in enumerate(cells(points, inf_mask)):
                writer.writerow([c[i] for c in before] + re_im + [c[i] for c in after])


def _same_bytes(tmp_path, header, tables, write=None):
    tables = list(tables)
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    (write or (lambda path: write_csv(path, header, tables)))(ours)
    _reference_csv(theirs, header, tables)
    assert ours.read_bytes() == theirs.read_bytes()


def test_write_csv_bytes_on_edge_values(tmp_path):
    # An atom at infinity (whatever value it stores), signed zeros, the
    # smallest subnormal, parts whose reprs switch to exponent form, and
    # the widest integers a tree holds.
    points = np.array([complex(np.nan, 7.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                       complex(5e-324, -5e-324), complex(1e16, -1e16),
                       complex(1e-5, 0.1), complex(-1e-5, 1e15), 1 / 3 + 2j / 3])
    inf_mask = np.zeros(points.size, dtype=bool)
    inf_mask[0] = True
    cum = np.array([2**62 - 1, 2**62, 1, 2, 3, 4, 5, 2**62 + 2**61], dtype=np.int64)
    parent = np.array([-1, 0, 0, 1, 1, 2, 2, 3], dtype=np.int64)
    _same_bytes(tmp_path, ["level", "re", "im", "cumulative_mult", "parent_index"],
                [([20], points, inf_mask, [cum, parent])])
    _same_bytes(tmp_path, ["re", "im", "weight_num", "weight_depth"],
                [([], points, inf_mask, [cum, 20])])
    _same_bytes(tmp_path, ["re", "im"], [([], points, inf_mask, [])])


def test_write_csv_bytes_across_chunks(tmp_path, monkeypatch):
    chunk = 4
    monkeypatch.setattr(sphere, "_CSV_CHUNK", chunk)
    rng = np.random.default_rng(5)
    tables = []
    for k, size in enumerate([chunk - 1, chunk, chunk + 1, 3 * chunk + 2]):
        points = rng.normal(size=size) + 1j * rng.normal(size=size)
        inf_mask = rng.random(size) < 0.2
        tables.append(([k], points, inf_mask, [rng.integers(1, 9, size), k]))
    for table in tables:
        _same_bytes(tmp_path, ["level", "re", "im", "n", "k"], [table])
    _same_bytes(tmp_path, ["level", "re", "im", "n", "k"], tables)
    # The three exports, on a tree whose levels span up to eight chunks.
    basilica = builtin_map("basilica")
    tree = iterated_preimages(basilica, default_root(basilica), 5)
    _same_bytes(tmp_path, ["level", "re", "im", "cumulative_mult", "parent_index"],
                [([k], lvl.points, lvl.inf_mask, [lvl.cum, lvl.parent])
                 for k, lvl in enumerate(tree.levels)], tree.to_csv)
    mu = measure_from_tree(tree)
    _same_bytes(tmp_path, ["re", "im", "weight_num", "weight_depth"],
                [([], mu.points, mu.inf_mask, [mu.cum, mu.depth])], mu.to_csv)
    sample = julia_sample(basilica, 48, seed=1)
    _same_bytes(tmp_path, ["re", "im"], [([], sample.points, sample.inf_mask, [])],
                sample.to_csv)
