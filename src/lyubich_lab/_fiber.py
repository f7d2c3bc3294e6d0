"""Internal engine: solve R(z) = w with multiplicities on the sphere.

Works on padded coefficient arrays so it can be shared by the map-level
operations (critical and exceptional point search) and the public preimage
solver without import cycles.

Two paths solve the same equation.  :func:`solve_fiber` takes one target
and is the reference: Aberth iteration per root, chordal clustering into
atoms with multiplicities, multiplicity-corrected polishing.
:func:`solve_fibers` takes a whole array of targets, as the tree builder
and every other caller with a point array need, and runs the simultaneous
Aberth-Ehrlich iteration on all of them at once as one ``(targets,
degree)`` array (Aberth, Math. Comp. 27, 1973; Bini, Numer. Algorithms 13,
1996).  It handles only the plain case: a finite target whose fiber
polynomial keeps its full degree and a nonzero constant term, and whose
roots all converge and lie farther apart than ten times
``CLUSTER_RADIUS``.  Every other target (infinity, a degree drop, a root at
the origin, no convergence within the iteration cap, or a near multiple
root, which is where the two iterations could disagree about a merge) goes
to :func:`solve_fiber`, so multiplicities are decided only by the reference
path.
"""

import cmath
import math

import numpy as np

from . import roots
from .errors import RootFindingFailure
from .sphere import INFINITY, SpherePoint, chordal

# Chordal radius under which numerically distinct roots are one atom:
# double roots perturb as conjugate pairs at the sqrt of the residual
# tolerance, and sqrt(1e-12) = 1e-6.
CLUSTER_RADIUS = 1e-6

# Finite roots beyond this modulus are chordally inside the cluster radius
# of infinity and are merged into an existing atom at infinity.
_NEAR_INFINITY = 2.0 / CLUSTER_RADIUS

# Relative cancellation tolerance when deciding the degree drop of
# num - w * den at the leading coefficients.
_CANCEL_TOL = 1e-10


def cluster_points(points, mults, radius: float = CLUSTER_RADIUS,
                   include_infinity: int = 0):
    """Merge points closer than ``radius`` in the chordal metric.

    Parameters
    ----------
    points : sequence of complex finite candidates.
    mults : matching integer multiplicities.
    include_infinity : multiplicity of a pre-existing atom at infinity;
        huge finite candidates merge into it.

    Returns
    -------
    list of (SpherePoint, int), unsorted.
    """
    pts = [complex(p) for p in points]
    ms = [int(m) for m in mults]
    inf_mult = int(include_infinity)
    if inf_mult > 0:
        keep_pts, keep_ms = [], []
        for p, m in zip(pts, ms):
            if abs(p) > _NEAR_INFINITY:
                inf_mult += m
            else:
                keep_pts.append(p)
                keep_ms.append(m)
        pts, ms = keep_pts, keep_ms

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
    if inf_mult > 0:
        out.append((INFINITY, inf_mult))
    return out


def _effective_degree(num_pad: np.ndarray, den_pad: np.ndarray, w: complex) -> int:
    """Degree of num - w*den after removing leading coefficients that
    cancel (relative to the magnitudes being subtracted)."""
    d = num_pad.size - 1
    while d > 0:
        lead = num_pad[d] - w * den_pad[d]
        scale = abs(num_pad[d]) + abs(w) * abs(den_pad[d])
        if abs(lead) > _CANCEL_TOL * scale:
            break
        d -= 1
    return d


def solve_fiber(num_pad: np.ndarray, den_pad: np.ndarray, degree: int,
                w: SpherePoint) -> list[tuple[SpherePoint, int]]:
    """All solutions of R(z) = w with multiplicities; total equals degree.

    ``num_pad`` and ``den_pad`` are ascending coefficient arrays padded to
    length ``degree + 1``.
    """
    if w.infinite:
        den = roots.trim(den_pad)
        inf_mult = degree - (den.size - 1)
        h = den
    else:
        h_full = num_pad - w.value * den_pad
        d_eff = _effective_degree(num_pad, den_pad, w.value)
        h = h_full[: d_eff + 1]
        inf_mult = degree - d_eff

    finite_roots = roots.aberth_roots(h) if h.size > 1 else np.zeros(0, dtype=complex)
    atoms = cluster_points(finite_roots, np.ones(finite_roots.size, dtype=int),
                           include_infinity=inf_mult)

    polished = []
    for point, mult in atoms:
        if point.infinite or mult == 0:
            polished.append((point, mult))
            continue
        z = roots.polish_root(h, point.value, mult)
        polished.append((SpherePoint(z), mult))

    total = sum(m for _, m in polished)
    if total != degree:
        raise RootFindingFailure(
            f"fiber multiplicities sum to {total}, expected {degree}")
    polished.sort(key=lambda pm: pm[0].sort_key())
    return polished


# Rows with two roots closer than this go to the scalar path, which owns
# the merge decision at CLUSTER_RADIUS.  Aberth leaves a double root split
# by a few CLUSTER_RADIUS (1.4e-6 scalar, 2.3e-6 batched on z^3 - 3z at -2),
# so the margin sends every such row there.
_FALLBACK_RADIUS = 10 * CLUSTER_RADIUS


def _rows_eval(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner's rule row by row: ``c`` is (rows, k + 1) ascending, ``z`` is
    (rows, n)."""
    value = np.zeros_like(z)
    for k in range(c.shape[1] - 1, -1, -1):
        value = value * z + c[:, k:k + 1]
    return value


def _rows_eval_with_scale(c: np.ndarray, abs_c: np.ndarray, z: np.ndarray):
    """p(z) and the evaluation scale sum(|c_k| |z|^k), row by row."""
    value = np.zeros_like(z)
    scale = np.zeros(z.shape)
    az = np.abs(z)
    for k in range(c.shape[1] - 1, -1, -1):
        value = value * z + c[:, k:k + 1]
        scale = scale * az + abs_c[:, k:k + 1]
    return value, scale


def _aberth_rows(h: np.ndarray):
    """Simultaneous Aberth iteration on each row of ``h`` (rows, n + 1),
    with the per-root rules of roots.aberth_roots and a Jacobi update.

    Returns the roots (rows, n) and a mask of the rows that converged
    within the iteration cap.
    """
    rows, n = h.shape[0], h.shape[1] - 1
    c = h / np.abs(h).max(axis=1, keepdims=True)
    radius = 1.0 + np.abs(c[:, :n] / c[:, n:]).max(axis=1)
    # The start circle of roots.aberth_roots.
    z = radius[:, None] * np.array([cmath.exp(2j * math.pi * (k / n + 0.3779))
                                    for k in range(n)])
    # Work on the rows still iterating only; ``live`` maps them back.
    live = np.arange(rows)
    zi, ci, dci = z, c, c[:, 1:] * np.arange(1, n + 1)
    abs_ci = np.abs(c)
    done = np.zeros(z.shape, dtype=bool)
    for _ in range(roots.MAX_ITERATIONS):
        pv, scale = _rows_eval_with_scale(ci, abs_ci, zi)
        done |= np.abs(pv) <= roots.RESIDUAL_TOL * np.maximum(scale, 1e-300)
        busy = ~done.all(axis=1)
        z[live[~busy]] = zi[~busy]
        if not busy.any():
            live = live[busy]
            break
        live, zi, ci, dci, abs_ci, done, pv = (
            a[busy] for a in (live, zi, ci, dci, abs_ci, done, pv))
        dv = _rows_eval(dci, zi)
        stuck = dv == 0
        newton = pv / dv
        # Sum of 1/(z_i - z_j) over j != i, one column j at a time.
        az = np.abs(zi)
        repulsion = np.zeros_like(zi)
        for j in range(n):
            dz = zi - zi[:, j:j + 1]
            inv = 1.0 / np.where(dz == 0, 1e-14 * (1 + az), dz)
            inv[:, j] = 0
            repulsion += inv
        denom = 1.0 - newton * repulsion
        step = np.where(denom == 0, newton, newton / denom)
        moved = np.where(stuck, zi * (1.0 + 1e-6 + 1e-6j), zi - step)
        zi = np.where(done, zi, moved)
    converged = np.ones(rows, dtype=bool)
    converged[live] = False
    return z, converged


def _close_pair(z: np.ndarray) -> np.ndarray:
    """Rows with two roots within chordal ``_FALLBACK_RADIUS`` (or a root
    that is not finite)."""
    n = z.shape[1]
    norm = np.hypot(1.0, np.abs(z))
    close = ~np.isfinite(z).all(axis=1)
    for i in range(n):
        for j in range(i + 1, n):
            gap = 2.0 * np.abs(z[:, i] - z[:, j]) / (norm[:, i] * norm[:, j])
            close |= ~(gap > _FALLBACK_RADIUS)
    return close


def _polish_rows(h: np.ndarray, z: np.ndarray, steps: int = 3) -> np.ndarray:
    """roots.polish_root at multiplicity 1 on every root: Newton steps on
    the unnormalised ``h``, keeping the iterate of least residual."""
    n = h.shape[1] - 1
    dh = h[:, 1:] * np.arange(1, n + 1)
    pv = _rows_eval(h, z)
    best, best_res = z, np.abs(pv)
    stepping = np.ones(z.shape, dtype=bool)
    for _ in range(steps):
        dv = _rows_eval(dh, z)
        stepping &= dv != 0
        moved = z - pv / dv
        stepping &= np.isfinite(moved)
        res = _rows_eval(h, moved)
        abs_res = np.abs(res)
        better = stepping & (abs_res <= best_res)
        best = np.where(better, moved, best)
        best_res = np.where(better, abs_res, best_res)
        z = np.where(stepping, moved, z)
        pv = np.where(stepping, res, pv)
    return best


def solve_fibers(num_pad: np.ndarray, den_pad: np.ndarray, degree: int,
                 values: np.ndarray, infinite: np.ndarray):
    """The fibers over many targets at once, as the arrays of a flat table.

    ``values`` and ``infinite`` give the targets as a complex array and
    its infinity mask.  Returns ``(points, inf_mask, mult, offsets)``: the
    fiber over target j fills ``offsets[j]:offsets[j + 1]`` of the other
    arrays, in the order of :func:`solve_fiber`.  Each target is solved on
    its own, so splitting the targets into blocks never changes an answer;
    targets outside the plain case are solved by :func:`solve_fiber`.
    """
    n = degree
    values = np.asarray(values, dtype=complex)
    infinite = np.asarray(infinite, dtype=bool)
    w = np.where(infinite, 0j, values)
    h = num_pad - w[:, None] * den_pad
    lead_scale = abs(num_pad[n]) + np.abs(w) * abs(den_pad[n])
    batched = (~infinite & (np.abs(h)[:, n] > _CANCEL_TOL * lead_scale)
               & (h[:, 0] != 0))

    rows = np.flatnonzero(batched)
    # Steps that divide by zero are masked out, and a row that overflows
    # fails its residual test and falls back, so no warning is news.
    with np.errstate(all="ignore"):
        found, converged = _aberth_rows(h[rows])
        ok = converged & ~_close_pair(found)
        batched[rows[~ok]] = False
        rows = rows[ok]
        found = _polish_rows(h[rows], found[ok])
    order = np.lexsort((found.imag, found.real), axis=1)
    found = np.take_along_axis(found, order, axis=1)

    fallback = {int(r): solve_fiber(num_pad, den_pad, n,
                                    INFINITY if infinite[r] else SpherePoint(complex(values[r])))
                for r in np.flatnonzero(~batched)}
    counts = np.full(values.size, n, dtype=np.int64)
    for r, atoms in fallback.items():
        counts[r] = len(atoms)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    points = np.zeros(offsets[-1], dtype=complex)
    inf_mask = np.zeros(offsets[-1], dtype=bool)
    mult = np.ones(offsets[-1], dtype=np.int64)
    points[offsets[rows, None] + np.arange(n)] = found
    for r, atoms in fallback.items():
        at = slice(offsets[r], offsets[r + 1])
        points[at] = [p.value for p, _ in atoms]
        inf_mask[at] = [p.infinite for p, _ in atoms]
        mult[at] = [m for _, m in atoms]

    totals = np.add.reduceat(mult, offsets[:-1])
    if np.any(totals != n):
        raise RootFindingFailure(
            f"fiber multiplicities sum to {totals[totals != n][0]}, expected {n}")
    return points, inf_mask, mult, offsets
