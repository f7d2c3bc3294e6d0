"""Internal engine: solve R(z) = w with multiplicities on the sphere.

Works on padded coefficient arrays so it can be shared by the map-level
operations (exceptional point search) and the public preimage solver
without import cycles.

:func:`solve_fibers` is the one fiber solver.  It takes a whole array of
targets and solves each fiber polynomial h = P - wQ (h = Q when w is
infinity) as a row.  A degree drop of h, decided at ``_CANCEL_TOL``, is an
atom at infinity, and exact zero low-order coefficients are an exact root
at 0.  Rows that share what is left to solve are solved together by the
rows engine of :mod:`roots` and polished.

Multiplicities come from critical points, not from distances: a multiple
root of h lies at a critical point c with R(c) = w, and its multiplicity
is the branch index e(c).  So when a finite critical point meets a row's
backward-error test, ``|h(c)| <= RESIDUAL_TOL * sum |h_k| max(1, |c|)^k``,
the e(c) roots nearest c become one atom at c of multiplicity e(c).  A
target off a critical value keeps simple roots, however close.
:func:`solve_fiber` is the one-row front.
"""

import numpy as np

from . import roots
from .sphere import INFINITY, SpherePoint, chordal

# Chordal radius under which numerically distinct points are one point in
# the critical-, fixed- and exceptional-point search: double roots perturb
# as conjugate pairs at the sqrt of the residual tolerance, and
# sqrt(1e-12) = 1e-6.  Fibers do not use it.
CLUSTER_RADIUS = 1e-6

# Finite candidates beyond this modulus are chordally inside the cluster
# radius of infinity: noise that the critical- and fixed-point search drops,
# since it finds branching and fixed points at infinity directly.
_NEAR_INFINITY = 2.0 / CLUSTER_RADIUS

# Relative cancellation tolerance when deciding the degree drop of
# num - w * den at the leading coefficients.
_CANCEL_TOL = 1e-10


def cluster_points(points, mults, radius: float = CLUSTER_RADIUS):
    """Merge points closer than ``radius`` in the chordal metric.

    Parameters
    ----------
    points : sequence of complex finite candidates.
    mults : matching integer multiplicities.

    Returns
    -------
    list of (SpherePoint, int), unsorted.
    """
    pts = [complex(p) for p in points]
    ms = [int(m) for m in mults]
    order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(len(order)):
        i = order[a]
        for b in range(a + 1, len(order)):
            j = order[b]
            # Sorted by real part: once the real gap alone exceeds the
            # radius no later point can be within it.
            if (pts[j].real - pts[i].real) > radius:
                break
            if chordal(SpherePoint(pts[i]), SpherePoint(pts[j])) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), []).append(i)

    out = []
    for members in groups.values():
        total = sum(ms[i] for i in members)
        center = sum(pts[i] * ms[i] for i in members) / total
        out.append((SpherePoint(center), total))
    return out


def solve_fibers(num_pad: np.ndarray, den_pad: np.ndarray, degree: int,
                 values: np.ndarray, infinite: np.ndarray, critical):
    """The fibers over many targets at once, as the arrays of a flat table.

    ``values`` and ``infinite`` give the targets as a complex array and
    its infinity mask; ``critical`` is the map's critical points (objects
    with ``point`` and ``index``).  Returns ``(points, inf_mask, mult,
    offsets)``: the fiber over target j fills ``offsets[j]:offsets[j + 1]``
    of the other arrays, ordered by (infinite, real, imag).  Each target is
    solved on its own, so splitting the targets into blocks never changes
    an answer.
    """
    n = degree
    values = np.asarray(values, dtype=complex)
    infinite = np.asarray(infinite, dtype=bool)
    rows = values.size
    w = np.where(infinite, 0j, values)[:, None]
    h = np.where(infinite[:, None], den_pad, num_pad - w * den_pad)

    # A leading coefficient that cancels against the magnitudes subtracted
    # drops the degree to ``top`` (over infinity only exact zeros of Q do);
    # ``low`` exact zero low-order coefficients are an exact root at 0.
    # Most rows have neither, so only the others are scanned.
    lead = np.where(infinite, abs(den_pad[n]),
                    abs(num_pad[n]) + np.abs(w[:, 0]) * abs(den_pad[n]))
    odd = np.flatnonzero(~(np.abs(h[:, n]) > _CANCEL_TOL * lead) | (h[:, 0] == 0))
    size = np.where(infinite[odd, None], abs(den_pad),
                    abs(num_pad) + np.abs(w[odd]) * abs(den_pad))
    kept = np.abs(h[odd]) > _CANCEL_TOL * size
    kept[:, 0] = True
    top = n - np.argmax(kept[:, ::-1], axis=1)
    low = np.minimum(np.argmax(h[odd] != 0, axis=1), top)
    plain = np.ones(rows, dtype=bool)
    plain[odd] = False
    groups = [(0, n, np.flatnonzero(plain))]
    for lo, hi in sorted(set(zip(low.tolist(), top.tolist()))):
        groups.append((lo, hi, odd[(low == lo) & (top == hi)]))

    points = np.zeros((rows, n), dtype=complex)
    inf_mask = np.zeros((rows, n), dtype=bool)
    mult = np.zeros((rows, n), dtype=np.int64)
    # Slots: the roots of h / z^lo, then one exact root at 0, then (always
    # the last slot) the atom at infinity.
    for lo, hi, at in groups:
        if hi > lo and at.size:
            reduced = h[at, lo:hi + 1]
            # Steps that divide by zero are masked out and a row that
            # overflows fails its residual test, so no warning is news.
            with np.errstate(all="ignore"):
                points[at, :hi - lo] = roots.polish_rows(reduced, roots.rows_roots(reduced))
            mult[at, :hi - lo] = 1
        if lo:
            mult[at, hi - lo] = lo
        if hi < n:
            mult[at, n - 1] += n - hi
            inf_mask[at, n - 1] = True

    for datum in critical:
        if not datum.point.infinite:
            _merge_at_critical_point(h, points, inf_mask, mult,
                                     datum.point.value, datum.index)

    # Finite atoms by (real, imag), then infinity, then the empty slots,
    # whose NaN key sorts last.
    key = np.where(mult == 0, np.nan, np.where(inf_mask, np.inf, points.real))
    order = np.lexsort((points.imag, key), axis=1)
    count = np.count_nonzero(mult, axis=1)
    flat = (n * np.arange(rows)[:, None] + order)[np.arange(n) < count[:, None]]
    offsets = np.concatenate([[0], np.cumsum(count)])
    return points.ravel()[flat], inf_mask.ravel()[flat], mult.ravel()[flat], offsets


def _merge_at_critical_point(h, points, inf_mask, mult, c: complex, e: int) -> None:
    """On every row whose h meets the backward-error test at c, merge the
    finite slots nearest c, until they hold e multiplicities, into one
    atom at c."""
    scale = (np.abs(h) * max(1.0, abs(c)) ** np.arange(h.shape[1])).sum(axis=1)
    value = roots.rows_eval(h, np.full((h.shape[0], 1), c))[:, 0]
    hit = np.flatnonzero(np.abs(value) <= roots.RESIDUAL_TOL * scale)
    if not hit.size:
        return
    m = mult[hit]
    dist = np.where((m > 0) & ~inf_mask[hit], np.abs(points[hit] - c), np.inf)
    order = np.argsort(dist, axis=1, kind="stable")
    m_sorted = np.take_along_axis(m, order, axis=1)
    taken_sorted = ((np.cumsum(m_sorted, axis=1) - m_sorted < e)
                    & np.isfinite(np.take_along_axis(dist, order, axis=1)))
    taken = np.zeros_like(taken_sorted)
    np.put_along_axis(taken, order, taken_sorted, axis=1)
    total = np.where(taken, m, 0).sum(axis=1)
    m[taken] = 0
    first = order[:, 0]
    m[np.arange(hit.size), first] += total
    mult[hit] = m
    points[hit[total > 0], first[total > 0]] = c


def solve_fiber(num_pad: np.ndarray, den_pad: np.ndarray, degree: int,
                w: SpherePoint, critical) -> list[tuple[SpherePoint, int]]:
    """All solutions of R(z) = w with multiplicities, :func:`solve_fibers`
    on one target; the total multiplicity equals the degree."""
    points, inf_mask, mult, _ = solve_fibers(num_pad, den_pad, degree,
                                             np.array([w.value]), np.array([w.infinite]),
                                             critical)
    return [(INFINITY if inf else SpherePoint(complex(z)), int(m))
            for z, inf, m in zip(points, inf_mask, mult)]
