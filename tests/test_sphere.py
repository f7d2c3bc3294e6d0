import csv
import math

import numpy as np
import pytest

from lyubich_lab import sphere
from lyubich_lab.bimodule_basis import julia_sample
from lyubich_lab.lyubich_measure import default_root, measure_from_tree
from lyubich_lab.preimage_solver import gather_fibers, iterated_preimages
from lyubich_lab.rational_map import builtin_map
from lyubich_lab.sphere import (INFINITY, SpherePoint, as_point, atom_order, chordal,
                                chordal_array, chordal_pairs, write_csv)


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


def test_chordal_huge_moduli():
    assert chordal(1e200, INFINITY) < 1e-150
    assert math.isfinite(chordal(1e200, -1e200))


def test_chordal_array_matches_scalar():
    pts = np.array([0, 1 + 1j, -2, 5j], dtype=complex)
    inf = np.array([False, False, False, False])
    q = as_point(0.5 - 0.5j)
    vec = chordal_array(pts, inf, q)
    for i in range(pts.size):
        assert vec[i] == pytest.approx(chordal(pts[i], q), rel=1e-14)
    inf2 = np.array([False, True, False, False])
    vec2 = chordal_array(pts, inf2, q)
    assert vec2[1] == pytest.approx(chordal(INFINITY, q), rel=1e-14)


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


def test_chordal_pairs_match_scalar_chordal():
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
    want = [chordal(INFINITY if zi else SpherePoint(a), INFINITY if wi else SpherePoint(b))
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
