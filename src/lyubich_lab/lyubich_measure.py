"""Preimage-counting measures, quadrature, and convergence diagnostics.

The depth-m measure puts weight (branch product) / base**m on each deepest
atom of a preimage tree.  Weights are kept as integer numerators over a
power of the base, so the level-to-level pushforward identity can be
checked with exact rational arithmetic rather than approximately.  The
measure of a tree level is the level itself: ``preimage_solver`` defines
:class:`AtomicMeasure` as the tree's level type, and this module reads it.

The pushforward merges the children of each atom along the tree's parent
edges, and the match compares atom j with atom j, so atoms that crowd
together (as at the ends of the arcsine law) are never mistaken for each
other.
"""

import math

import numpy as np

from .errors import DegenerateSample, ExceptionalRoot
from .preimage_solver import AtomicMeasure, PreimageTree, iterated_preimages
from .rational_map import (RationalMap, branch_index, evaluate_array,
                           fixed_points, is_exceptional)
from .sphere import SpherePoint, as_point, chordal_pairs, point_json
from .test_functions import TestFunction


def measure_from_tree(tree: PreimageTree, level: int | None = None) -> AtomicMeasure:
    """The atomic measure carried by a tree level (deepest by default): the
    level itself, validated."""
    mu = tree.level(tree.depth if level is None else int(level))
    mu.validate()
    return mu


# Terms per block of the binned sum: every temporary of a block stays below
# glibc's 128 KiB mmap threshold, and a bin sums far fewer than 2**26 terms.
_SUM_BLOCK = 8192
# An array with an exponent beyond this band is summed by fsum itself: its
# bins, scaled back, could leave the normal floats.
_SUM_EXPONENTS = 900


def compensated_sum(re: np.ndarray, im: np.ndarray | None = None):
    """The complex number whose parts are the correctly rounded sums of the
    real and the imaginary term arrays, or the real sum alone when ``im`` is
    omitted; every weighted sum of a report is taken here.  Term arrays of
    shape (rows, n) give one sum per row, as an array.

    Each sum equals ``math.fsum`` of its row, bit for bit, and does not
    depend on the order of the row's terms.  The real and imaginary rows
    are summed in one pass, in blocks of at most ``_SUM_BLOCK`` terms (a
    longer row spans several).  ``np.frexp`` writes each term as m * 2**e,
    and m * 2**27 splits exactly into its integer part, below 2**27, and
    the rest, a multiple of 2**-26 below 1.  One ``np.bincount`` per part
    sums a block's terms by (row, e).  A bin that sums fewer than 2**26
    terms, as every bin of a block does, keeps its partial sums below 2**53
    on their grid, so they are exact.  Scaled by 2**(e - 27), each bin is
    an exact float, and ``math.fsum`` over a row's bins (two per exponent
    its block spans) is the correctly rounded sum of its terms.  An array
    holding a term that is not finite, or a binary exponent beyond +-900,
    where a scaled bin could leave the normal floats, is summed by
    ``math.fsum`` itself, row by row, so NaN, inf, ``OverflowError`` and
    the ``ValueError`` of inf - inf stay fsum's.
    """
    parts = [np.atleast_2d(np.asarray(terms, dtype=float))
             for terms in ((re,) if im is None else (re, im))]
    sums = _binned_sums(parts)
    if sums is None:
        sums = np.array([[math.fsum(row) for row in p.tolist()] for p in parts]).T
    sums = sums[:, 0] if im is None else np.ascontiguousarray(sums).view(complex)[:, 0]
    return sums[0].item() if np.ndim(re) == 1 else sums


def _binned_sums(parts: list) -> np.ndarray | None:
    """The correctly rounded row sums of equal-shape (rows, n) arrays as a
    (rows, len(parts)) array, or None where fsum must take the whole sum."""
    rows, n = parts[0].shape
    count = len(parts)
    if n == 0:
        return np.zeros((rows, count))
    width = min(n, max(1, _SUM_BLOCK // count))
    step = max(1, _SUM_BLOCK // (count * width))
    sums = np.empty(rows * count)
    for r in range(0, rows, step):
        bins = []
        for c in range(0, n, width):
            # Row j of a block is part j % count of row r + j // count; a
            # single part is its own block.
            block = parts[0][r:r + step, c:c + width]
            if count > 1:
                block = np.concatenate([p[r:r + step, None, c:c + width] for p in parts],
                                       axis=1).reshape(-1, block.shape[1])
            bins.append(_exact_bins(block))
            if bins[-1] is None:
                return None
        # A row that spans several blocks sums the bins of all of them.
        bins = bins[0] if len(bins) == 1 else np.concatenate(bins, axis=1)
        sums[r * count:r * count + len(bins)] = list(map(math.fsum, bins.tolist()))
    return sums.reshape(rows, count)


def _exact_bins(terms: np.ndarray) -> np.ndarray | None:
    """Per row of ``terms``, exact floats that add up to the row's terms:
    each row's sums by binary exponent, in an integer and a fractional half;
    None when a term is not finite or an exponent leaves the safe band."""
    if not np.isfinite(terms).all():
        return None
    mantissa, exponent = np.frexp(terms)
    low, high = int(exponent.min()), int(exponent.max())
    if low < -_SUM_EXPONENTS or high > _SUM_EXPONENTS:
        return None
    rows, span = len(terms), high - low + 1
    # Row r's term of exponent e goes to bin r * span + e - low.
    index = (exponent + np.arange(-low, rows * span - low, span, dtype=np.int32)[:, None]).ravel()
    frac = mantissa * 2.0 ** 27
    whole = np.trunc(frac)
    frac -= whole  # exact: m * 2**27 is a multiple of 2**-26
    bins = np.concatenate([np.bincount(index, half.ravel(), rows * span)
                           for half in (whole, frac)])
    scaled = np.ldexp(bins.reshape(2, rows, span), np.arange(low - 27, high - 26))
    return scaled.transpose(1, 0, 2).reshape(rows, 2 * span)


def integrate(mu: AtomicMeasure, f: TestFunction) -> complex:
    """Quadrature sum(f(atom) * weight), correctly rounded.

    Weights become floating point only at the final accumulation; each
    num/denominator is an exact dyadic-style division for the desk-scale
    denominators used here.  Each part is summed by ``compensated_sum``:
    exact per exponent bin, rounded once, so it is ``math.fsum``'s result
    whatever the order of the atoms.
    """
    values = f.evaluate(mu.points, mu.inf_mask)
    return compensated_sum(values.real * mu.weights, values.imag * mu.weights)


def pushforward(mu: AtomicMeasure, rmap: RationalMap) -> AtomicMeasure:
    """Image measure under the map, merged along the tree's parent edges.

    The children of each level-(k-1) atom become one atom, in the order of
    level k-1: their numerators add exactly, and the atom sits at the
    numerator-weighted mean of their images, or at infinity when any image
    is infinite.  ``spread`` keeps, per merged atom, the largest chordal
    distance from a child's image to it.  For a depth-m tree measure the
    result equals the depth-(m-1) measure of the same tree in exact
    rational arithmetic.

    Raises ValueError for a measure without parents or a foreign map.
    """
    if mu.depth < 1:
        raise ValueError("pushforward needs depth >= 1")
    if mu.parent is None:
        raise ValueError("pushforward needs a measure from a tree level")
    if rmap is not mu.map:
        raise ValueError("pushforward needs the map the measure's tree was built for")
    images, image_inf = evaluate_array(rmap, mu.points, mu.inf_mask)
    size = int(mu.parent.max()) + 1
    cum = np.zeros(size, dtype=np.int64)
    np.add.at(cum, mu.parent, mu.cum)
    # evaluate_array puts 0j at infinite images, so they add nothing here.
    sums = np.zeros(size, dtype=complex)
    np.add.at(sums, mu.parent, mu.cum * images)
    inf_mask = np.zeros(size, dtype=bool)
    inf_mask[mu.parent[image_inf]] = True
    points = np.where(inf_mask, 0j, sums / cum)
    spread = np.zeros(size)
    np.maximum.at(spread, mu.parent, chordal_pairs(
        images, image_inf, points[mu.parent], inf_mask[mu.parent]))

    out = AtomicMeasure(map=mu.map, root=mu.root, depth=mu.depth, base=mu.base,
                        points=points, inf_mask=inf_mask, cum=cum, spread=spread)
    out.validate()
    return out


def measure_match_defect(a: AtomicMeasure, b: AtomicMeasure) -> tuple[float, bool]:
    """Compare atom j of one measure with atom j of the other; report the
    worst chordal distance or ``spread``, and whether every pair has
    exactly equal rational weight.

    Measures of different sizes report inf.  A pushforward comes out in
    the order of the level it lands on, so it pairs with that level by
    index.
    """
    if a.size != b.size:
        return float("inf"), False
    gaps = [chordal_pairs(a.points, a.inf_mask, b.points, b.inf_mask)]
    gaps += [m.spread for m in (a, b) if m.spread is not None]
    worst = max(float(g.max(initial=0.0)) for g in gaps)
    da, db = a.denominator(), b.denominator()
    common = math.gcd(da, db)
    exact = np.array_equal(a.cum * (db // common), b.cum * (da // common))
    return worst, bool(exact)


def measures_match(a: AtomicMeasure, b: AtomicMeasure) -> bool:
    """Same atoms to 1e-8 chordal and exactly equal rational weights."""
    defect, exact = measure_match_defect(a, b)
    return exact and defect <= 1e-8


# ----------------------------------------------------------------------
# root conventions and convergence diagnostics

_FALLBACK_ROOTS = [0.31 + 0.17j, -0.41 + 0.23j, 0.11 - 0.37j, 1.03 + 0.51j,
                   -0.73 - 0.29j, 0.57 + 0.93j]


def default_root(rmap: RationalMap) -> SpherePoint:
    """Deterministic root for measure approximation.

    A repelling fixed point when one exists (lexicographically first),
    otherwise the first point in a fixed scan list that is neither
    exceptional nor critical.  The limit measure does not depend on the
    choice; fixing one makes runs reproducible.
    """
    repelling = []
    for p, lam in fixed_points(rmap):
        if p.infinite or lam is None:
            continue
        if abs(lam) > 1 + 1e-9 and not is_exceptional(rmap, p):
            repelling.append(p)
    if repelling:
        return min(repelling, key=lambda q: q.sort_key())
    for z in _FALLBACK_ROOTS:
        p = SpherePoint(z)
        if not is_exceptional(rmap, p) and branch_index(rmap, p) == 1:
            return p
    raise DegenerateSample("no suitable non-exceptional root found")


def convergence_report(rmap: RationalMap, roots, depths, fs) -> dict:
    """Integrals of each function against the depth-m measures.

    Returns a diagnostic report (no pass/fail): one record per
    (function, root, depth) with the value, the difference from the
    previous depth, and the spread across roots at that depth.
    """
    roots = [as_point(r) for r in roots]
    depths = sorted(int(m) for m in depths)
    for r in roots:
        if is_exceptional(rmap, r):
            raise ExceptionalRoot(f"root {r!r} is exceptional")

    values = {}
    for ri, root in enumerate(roots):
        tree = iterated_preimages(rmap, root, depths[-1])
        for m in depths:
            mu = measure_from_tree(tree, m)
            for fi, f in enumerate(fs):
                values[(fi, ri, m)] = integrate(mu, f)

    records = []
    for fi, f in enumerate(fs):
        for ri, root in enumerate(roots):
            prev = None
            for m in depths:
                v = values[(fi, ri, m)]
                across = [values[(fi, rj, m)] for rj in range(len(roots))]
                spread = max(abs(x - y) for x in across for y in across)
                records.append({
                    "map": rmap.describe(),
                    "w": point_json(root),
                    "m": m,
                    "f": f.name,
                    "value": [v.real, v.imag],
                    "diff_prev_m": None if prev is None else abs(v - prev),
                    "spread_across_w": spread,
                })
                prev = v
    return {"records": records,
            "roots": [point_json(r) for r in roots],
            "depths": depths,
            "functions": [f.name for f in fs]}
