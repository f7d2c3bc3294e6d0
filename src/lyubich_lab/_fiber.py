"""Internal engine: solve R(z) = w with multiplicities on the sphere.

Works on padded coefficient arrays so it can be shared by the map-level
operations (exceptional point search) and the public preimage solver
without import cycles.

:func:`solve_fibers` is the one fiber solver.  It takes a whole array of
targets and solves each fiber polynomial h = P - wQ (h = Q when w is
infinity) as a row.  A degree drop of h, decided at ``_CANCEL_TOL``, is an
atom at infinity, and exact zero low-order coefficients are an exact root
at 0.  Rows that share what is left to solve are solved together by the
rows engine of :mod:`roots`: rows of degree 2 and 3 in closed form with
one fused Newton step, and the rows of other degrees, or that the closed
form fails, by the Aberth iteration or the companion matrix and three
steps of ``polish_rows``.

A row is real when the map's coefficients and its target are, and its
roots are then closed under conjugation to the bit: real roots have
imaginary part +0, the others come in exact conjugate pairs.  A block of
real rows only is solved in float64 from h on, its critical-point test
included, by the real closed forms of :mod:`roots`; the
real rows of a complex block get the same roots (see
:func:`roots.rows_roots`), and the real rows no closed form solves are
paired after their polish by ``roots.pair_rows``.

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
from .errors import RootFindingFailure
from .sphere import SpherePoint, atom_order, chordal_pairs, sphere_points

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


def cluster_points(points, mults):
    """Merge points closer than ``CLUSTER_RADIUS`` in the chordal metric.

    Parameters
    ----------
    points : sequence of complex finite candidates.
    mults : matching integer multiplicities.

    Returns
    -------
    list of (SpherePoint, int), unsorted.
    """
    pts = np.asarray(points, dtype=complex)
    ms = np.asarray(mults, dtype=int)
    close = chordal_pairs(pts[:, None], False, pts, False) <= CLUSTER_RADIUS
    # Each point takes the least index it is chained to by close pairs.
    label = np.arange(pts.size)
    for _ in range(pts.size):
        label = np.where(close, label, pts.size).min(axis=1)

    out = []
    for root in np.flatnonzero(label == np.arange(pts.size)):
        members = label == root
        total = int(ms[members].sum())
        center = sum(z * m for z, m in zip(pts[members].tolist(), ms[members].tolist())) / total
        out.append((SpherePoint(center), total))
    return out


def solve_fibers(num_pad: np.ndarray, den_pad: np.ndarray, degree: int,
                 values: np.ndarray, infinite: np.ndarray, critical):
    """The fibers over many targets at once, as the arrays of a flat table.

    ``values`` and ``infinite`` give the targets as a complex array and
    its infinity mask; ``critical`` is the map's critical points (objects
    with ``point`` and ``index``).  Returns ``(points, inf_mask, mult,
    offsets)``: the fiber over target j fills ``offsets[j]:offsets[j + 1]``
    of the other arrays, in ``atom_order``.  Each target is solved on its
    own, so splitting the targets into blocks never changes an answer: a
    real row has the same roots in a block of real rows, solved in
    float64, as in a complex block.
    """
    n = degree
    values = np.asarray(values, dtype=complex)
    infinite = np.asarray(infinite, dtype=bool)
    rows = values.size
    # A row is real when the map and its target are.  A block of real rows
    # only is solved in float64 from h on.
    real = np.zeros(rows, dtype=bool)
    if not (num_pad.imag.any() or den_pad.imag.any()):
        real = infinite | (values.imag == 0)
    w = np.where(infinite, 0j, values)[:, None]
    if rows and real.all():
        num_pad, den_pad, w = num_pad.real, den_pad.real, w.real
    h = num_pad - w * den_pad
    h[infinite] = den_pad

    # A leading coefficient that cancels against the magnitudes subtracted
    # drops the degree to ``top`` (over infinity only exact zeros of Q do);
    # ``low`` exact zero low-order coefficients are an exact root at 0.
    # Most rows have neither, so only the others are scanned.
    lead = np.where(infinite, abs(den_pad[n]),
                    abs(num_pad[n]) + np.abs(w[:, 0]) * abs(den_pad[n]))
    # A NaN target is one of them: its leading coefficient is NaN.
    odd = np.flatnonzero(~(np.abs(h[:, n]) > _CANCEL_TOL * lead) | (h[:, 0] == 0))
    groups = [(0, n, slice(None))] if rows else []
    if odd.size:
        h_odd = h[odd]
        if np.isnan(h_odd).any():
            raise RootFindingFailure("a fiber polynomial has a NaN coefficient")
        size = np.where(infinite[odd, None], abs(den_pad),
                        abs(num_pad) + np.abs(w[odd]) * abs(den_pad))
        kept = np.abs(h_odd) > _CANCEL_TOL * size
        kept[:, 0] = True
        top = n - np.argmax(kept[:, ::-1], axis=1)
        low = np.minimum(np.argmax(h_odd != 0, axis=1), top)
        plain = np.ones(rows, dtype=bool)
        plain[odd] = False
        groups = [(0, n, np.flatnonzero(plain))] if odd.size < rows else []
        for lo, hi in sorted(set(zip(low.tolist(), top.tolist()))):
            groups.append((lo, hi, odd[(low == lo) & (top == hi)]))

    points = np.zeros((rows, n), dtype=complex)
    inf_mask = np.zeros((rows, n), dtype=bool)
    mult = np.zeros((rows, n), dtype=np.int64)
    # Slots: the roots of h / z^lo, then one exact root at 0, then (always
    # the last slot) the atom at infinity.
    for lo, hi, at in groups:
        if hi > lo:
            reduced = h[at, lo:hi + 1]
            paired = real[at]
            # Steps that divide by zero are masked out and a row that
            # overflows fails its residual test, so no warning is news.
            with np.errstate(all="ignore"):
                z, stepped = roots.rows_roots(reduced, paired)
                if not stepped.all():
                    z[~stepped] = roots.polish_rows(reduced[~stepped], z[~stepped])
                    loose = paired & ~stepped
                    if loose.any():
                        z[loose] = roots.pair_rows(z[loose])
            points[at, :hi - lo] = z
            mult[at, :hi - lo] = 1
        if lo:
            mult[at, hi - lo] = lo
        if hi < n:
            mult[at, n - 1] += n - hi
            inf_mask[at, n - 1] = True

    finite_critical = [d for d in critical if not d.point.infinite]
    if finite_critical:
        coeffs = np.ascontiguousarray(h.T)
        for datum in finite_critical:
            c = datum.point.value
            # A real critical point of a real block is a float, so that
            # its backward-error test runs in float64 too.
            if h.dtype.kind == "f" and not c.imag:
                c = c.real
            _merge_at_critical_point(coeffs, points, inf_mask, mult, c, datum.index)

    # Each row in order, its empty slots dropped: the stable sort keeps the
    # order of the other slots whatever the empty ones hold.
    ranked = (n * np.arange(rows)[:, None] + atom_order(points, inf_mask)).ravel()
    if mult.all():
        # No empty slot: every fiber fills its n slots.
        return (points.ravel()[ranked], inf_mask.ravel()[ranked], mult.ravel()[ranked],
                np.arange(0, n * rows + 1, n))
    filled = mult.ravel()[ranked] != 0
    flat = ranked[filled]
    offsets = np.concatenate([[0], np.cumsum(filled)[n - 1::n]])
    return points.ravel()[flat], inf_mask.ravel()[flat], mult.ravel()[flat], offsets


def _merge_at_critical_point(coeffs, points, inf_mask, mult, c: complex, e: int) -> None:
    """On every row whose h meets the backward-error test at c, merge the
    finite slots nearest c, until they hold e multiplicities, into one
    atom at c.  ``coeffs`` is h root-major, (n + 1, rows) and contiguous."""
    powers = max(1.0, abs(c)) ** np.arange(coeffs.shape[0])
    # numpy adds the rows of a contiguous (n + 1, rows) array in order, as
    # it adds a row of fewer than 8 values of a row-major (rows, n + 1) one.
    scale = (np.abs(coeffs) * powers[:, None]).sum(axis=0)
    value = roots.horner(coeffs, np.full((1, coeffs.shape[1]), c))[0]
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
    return list(zip(sphere_points(points, inf_mask), mult.tolist()))
