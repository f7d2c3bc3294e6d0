"""Polynomial root finding for the preimage machinery.

Rows of one degree are solved as a stack, a ``(rows, degree + 1)``
array, by an engine chosen by the degree alone.  Rows of degree 2 and 3
take closed forms (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, section 1.8; Kahan, "To solve a real cubic
equation", 1986): a quadratic row the quadratic formula with the root of
larger modulus taken first and the other from the product of the roots,
which is backward stable, and a cubic row Cardano's formula with the
longer of the two sums under the cube root.  Rows of degree 1 and of
degree 4 and more take the simultaneous Aberth-Ehrlich iteration
(Aberth, Math. Comp. 27, 1973; Bini, Numer. Algorithms 13, 1996).  All
work root-major: they transpose the stack once into coefficients
``(degree + 1, rows)`` and roots ``(degree, rows)`` (no copy when the
stack is itself the transpose of a root-major array, as the fiber
engine's is), so that every Horner step, residual test and repulsion
term works on contiguous length-``rows`` vectors, and the per-row
reductions run over the short leading axis.  All hold their roots to one backward-error test, and rows
that fail it (a closed form) or miss it within ``MAX_ITERATIONS`` (the
iteration) take the eigenvalues of their companion matrices, in one
stacked call.  The closed-form roots then take one Newton step, fused
with the residual test that already evaluated p at them; the iteration's
roots and the companion roots are for the three steps of
:func:`polish_rows`.  The scalar functions :func:`aberth_roots`,
:func:`polish_root` and :func:`companion_roots` are one-row fronts of
the same code.

Rows with real coefficients (a float stack) take real closed forms in
float64: the quadratic formula in the arithmetic that numpy's complex
division uses for a real divisor, so that a real row of a complex stack,
which the quadratic form pairs in place, gets the same bits, and for a
cubic the trigonometric form when it has three real roots and Cardano's
with a real cube root otherwise.  Both return real roots with imaginary
part +0 and complex roots as exact conjugate pairs; :func:`pair_rows`
closes the roots of the other engines' real rows in the same way.

Each row is solved on its own, and the answers are the same to the bit
for any number of rows.  That needs one rule: an operand of a complex
product is never a temporary.  From 256 KiB numpy may compute
``x * temporary`` in place as ``temporary * x``, and a complex product
can differ from its mirror image in the last bit.

Coefficients are ascending throughout the package: ``c[k]`` multiplies
``z**k``.
"""

import cmath
import math

import numpy as np

from .errors import RootFindingFailure

MAX_ITERATIONS = 200
# A candidate is accepted as a root when |p(z)| falls below this times the
# evaluation scale sum(|c_k| |z|^k); this is a backward-error criterion.
RESIDUAL_TOL = 1e-12
# Newton steps of each polish_rows call.
_POLISH_STEPS = 3


def trim(coeffs, rel_tol: float = 0.0) -> np.ndarray:
    """Drop leading (high-order) coefficients at or below ``rel_tol * max|c|``."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    bound = rel_tol * np.max(np.abs(c))
    k = c.size - 1
    while k > 0 and abs(c[k]) <= bound:
        k -= 1
    return c[: k + 1].copy()


def derivative(coeffs) -> np.ndarray:
    """The derivative's coefficients along the leading axis: of one
    polynomial, or of each column of a root-major stack.  Real (float)
    coefficients give real ones, any others complex ones."""
    c = np.asarray(coeffs)
    if c.dtype.kind != "f":
        c = c.astype(complex)
    if c.shape[0] <= 1:
        return np.zeros((1,) + c.shape[1:], dtype=c.dtype)
    return c[1:] * np.arange(1, c.shape[0]).reshape((-1,) + (1,) * (c.ndim - 1))


def horner(c: np.ndarray, z):
    """Horner's rule, the one polynomial evaluator.  ``c`` is ascending:
    one polynomial (k + 1,) evaluated at every entry of ``z``, or a
    root-major stack (k + 1, rows) with ``z`` (m, rows), where the result
    holds polynomial r at ``z[:, r]``.  Real ``c`` and ``z`` give the
    evaluation scale sum(|c_k| |z|^k)."""
    # The rule starts from 0 * z, not from c[-1], so that a non-finite z
    # gives NaN throughout.
    value = 0 * z + c[-1]
    for k in range(c.shape[0] - 2, -1, -1):
        value = value * z + c[k]
    return value


def _repulsion(z: np.ndarray, az: np.ndarray) -> np.ndarray:
    """Sum of 1/(z_i - z_j) over j != i for each root z_i, in ascending j;
    a zero difference counts as 1e-14 (1 + |z_i|)."""
    n = z.shape[0]
    repulsion = np.zeros_like(z)
    for k in range(n - 1):
        # Root i takes its k-th other root: z_k below the diagonal, z_(k+1)
        # from it on.
        dz = z - z[np.where(np.arange(n) <= k, k + 1, k)]
        if not dz.all():
            dz = np.where(dz == 0, 1e-14 * (1 + az), dz)
        repulsion += 1.0 / dz
    return repulsion


def aberth_rows(h: np.ndarray):
    """Simultaneous Aberth iteration on each row of ``h`` (rows, n + 1),
    n >= 1, with a nonzero leading coefficient in every row.

    A root stops moving once it meets the residual test; the update is
    Jacobi (every root moves against the previous iterate), so each row's
    answer does not depend on the other rows.  Returns the roots (rows, n)
    and a mask of the rows that converged within ``MAX_ITERATIONS``.
    """
    rows, n = h.shape[0], h.shape[1] - 1
    h = np.ascontiguousarray(h.T)
    c = h / np.abs(h).max(axis=0)
    radius = 1.0 + np.abs(c[:n] / c[n]).max(axis=0)
    start = np.array([cmath.exp(2j * math.pi * (k / n + 0.3779)) for k in range(n)])
    z = radius * start[:, None]
    # Work on the rows still iterating only; ``live`` maps them back.
    # Finished rows keep their roots, so they are dropped only once they
    # are at least half of the live rows.
    live = np.arange(rows)
    zi, ci, dci, abs_ci = z, c, derivative(c), np.abs(c)
    done = np.zeros(z.shape, dtype=bool)
    for _ in range(MAX_ITERATIONS):
        az = np.abs(zi)
        pv = horner(ci, zi)
        done |= np.abs(pv) <= RESIDUAL_TOL * np.maximum(horner(abs_ci, az), 1e-300)
        finished = done.all(axis=0)
        settled = np.count_nonzero(finished)
        if settled == live.size:
            break
        if 2 * settled >= live.size:
            z[:, live[finished]] = zi[:, finished]
            busy = ~finished
            live = live[busy]
            zi, ci, dci, abs_ci, done, pv, az = (
                a[:, busy] for a in (zi, ci, dci, abs_ci, done, pv, az))
        dv = horner(dci, zi)
        newton = pv / dv
        repulsion = _repulsion(zi, az)
        denom = 1.0 - newton * repulsion
        step = newton / denom
        if not denom.all():
            step = np.where(denom == 0, newton, step)
        moved = zi - step
        if not dv.all():
            moved = np.where(dv == 0, zi * (1.0 + 1e-6 + 1e-6j), moved)
        zi = np.where(done, zi, moved)
    finished = done.all(axis=0)
    z[:, live[finished]] = zi[:, finished]
    converged = np.ones(rows, dtype=bool)
    converged[live[~finished]] = False
    return z.T, converged


def companion_rows(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of the rows of ``h``
    (rows, n + 1), in one stacked call, each root held to a loose residual
    test: multiple roots legitimately stop near sqrt(eps) accuracy.  Real
    rows are solved as complex ones with zero imaginary parts."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[1] - 1
    mats = np.zeros((h.shape[0], n, n), dtype=complex)
    mats[:, 0, :] = -h[:, n - 1::-1] / h[:, n:]
    mats[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    try:
        z = np.linalg.eigvals(mats)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure("companion eigenvalue solve failed") from exc
    c = np.ascontiguousarray(h.T)
    c = c / np.abs(c).max(axis=0)
    pv = horner(c, z.T)
    bad = ~(np.abs(pv) <= 1e-6 * np.maximum(horner(np.abs(c), np.abs(z.T)), 1e-300))
    if bad.any():
        raise RootFindingFailure(
            f"root finder did not converge (residual {np.abs(pv)[bad].max():.3e})")
    return z


def quadratic_rows(h: np.ndarray, real=None):
    """Both roots of each row of ``h`` (rows, 3), with a nonzero leading
    coefficient in every row, in closed form, each refined by one Newton
    step.

    With each row scaled by max|c_k|, d = sqrt(b^2 - 4ac) takes the sign
    that makes |b + d| >= |b - d|, so q = -(b + d)/2 suffers no
    cancellation; the roots are q/a and c/q.  Returns the roots (rows, 2)
    and a mask of the rows whose two closed-form roots meet the residual
    test of :func:`aberth_rows`; see :func:`_newton_step`.

    A real row (every row of a float ``h``, and the rows of a complex
    ``h`` that ``real`` marks, whose imaginary parts are zero) with a
    negative discriminant takes q/a and its exact conjugate, in place of
    c/q, before the residual test, and its roots come out as
    :func:`_conjugate_closed` puts them.  A float ``h`` is solved in
    float64, dividing by a real y as x * (1 / y): that is what numpy's
    complex division does with a divisor of zero imaginary part, so a
    real row has the same roots in a float array as in a complex one.
    """
    h = np.ascontiguousarray(h.T)
    # A row whose constant term underflows when scaled gets q = 0 and the
    # root 0/0, which fails the residual test and goes to the companion
    # matrix.  So no warning is news.
    with np.errstate(all="ignore"):
        if h.dtype.kind == "f":
            return _real_quadratic(h * (1 / np.abs(h).max(axis=0)))
        c = h / np.abs(h).max(axis=0)
        c0, b, a = c
        bb = b * b
        ac = a * c0
        disc = bb - 4 * ac
        d = np.sqrt(disc)
        # Re(conj(b) d) < 0 means b - d is the longer sum.
        d = np.where(b.real * d.real + b.imag * d.imag < 0, -d, d)
        longer = b + d
        q = -0.5 * longer
        z = np.empty((2, c.shape[1]), dtype=complex)
        np.divide(q, a, out=z[0])
        np.divide(c0, q, out=z[1])
        if real is None or not real.any():
            return _newton_step(c, z)
        rows = np.flatnonzero(real)
        pair = disc.real[rows] < 0
        z[1, rows[pair]] = np.conj(z[0, rows[pair]])
        z, converged = _newton_step(c, z)
        z[rows] = _conjugate_closed(z[rows], pair)
        return z, converged


def _real_quadratic(c: np.ndarray):
    """:func:`quadratic_rows` on real rows, scaled and root-major (3, rows),
    in the arithmetic of the complex route on the same rows."""
    c0, b, a = c
    disc = b * b - 4 * (a * c0)
    pair = disc < 0
    d = np.sqrt(np.abs(disc))
    # The complex route's d is sqrt(disc), or i sqrt(-disc), which adds
    # +0 to the real part b of the longer sum.
    longer = b + np.where(pair, 0.0, np.where(b * d < 0, -d, d))
    q = -0.5 * longer
    inv_a = 1 / a
    if not pair.any():
        z = np.empty((2, c.shape[1]))
        np.multiply(q, inv_a, out=z[0])
        np.multiply(c0, 1 / q, out=z[1])
        z, converged = _newton_step(c, z)
        return z + 0j, converged
    z = np.empty((2, c.shape[1]), dtype=complex)
    z.real[0] = q * inv_a
    z.imag[0] = np.where(pair, -0.5 * d * inv_a, 0.0)
    z.real[1] = np.where(pair, z.real[0], c0 * (1 / q))
    z.imag[1] = -z.imag[0]
    z, converged = _newton_step(c, z)
    return _conjugate_closed(z, pair), converged


# The primitive cube root of unity exp(2 pi i / 3) and its exact conjugate.
_OMEGA = complex(-0.5, math.sqrt(3) / 2)
# The three angles 2 pi j / 3 of the trigonometric form of a real cubic.
_THIRDS = (2 * math.pi / 3) * np.arange(3)[:, None]


def cubic_rows(h: np.ndarray):
    """The three roots of each row of ``h`` (rows, 4), with a nonzero
    leading coefficient in every row, in closed form, each refined by one
    Newton step.

    Each row is scaled by max|c_k| and made monic, z^3 + B z^2 + C z + D.
    With D0 = B^2 - 3C and D1 = 2B^3 - 9BC + 27D, s = sqrt(D1^2 - 4 D0^3)
    takes the sign that makes |D1 + s| >= |D1 - s|, K is a cube root of
    (D1 + s)/2, and the roots are -(B + w K + D0/(w K))/3 for the three
    cube roots of unity w; a triple root (K = 0) is -B/3.  K is the real
    cube root of a real radicand and otherwise the cube root of modulus
    cbrt|.| and argument arg/3, both odd under conjugation, so conjugate
    rows give conjugate roots to the bit, and the complex pair of a real
    row is an exact conjugate pair.  A float ``h`` is solved in float64 by
    :func:`_real_cubic`.  Returns the roots (rows, 3) and a mask of the
    rows whose three closed-form roots meet the residual test of
    :func:`aberth_rows`; see :func:`_newton_step`.
    """
    h = np.ascontiguousarray(h.T)
    # Cardano's shift -B/3 cancels when one root is much smaller than the
    # others, and a row that overflows or underflows when made monic gives
    # roots that are not finite: both fail the residual test and go to the
    # companion matrix.  A triple root divides 0 by 0 before it takes
    # -B/3.  So no warning is news.
    with np.errstate(all="ignore"):
        if h.dtype.kind == "f":
            return _real_cubic(h)
        c = h / np.abs(h).max(axis=0)
        lead = c[3]
        b = c[2] / lead
        cc = c[1] / lead
        dd = c[0] / lead
        bb = b * b
        bbb = bb * b
        bc = b * cc
        d0 = bb - 3 * cc
        d1 = 2 * bbb - 9 * bc + 27 * dd
        d1d1 = d1 * d1
        d0d0 = d0 * d0
        d0d0d0 = d0d0 * d0
        s = np.sqrt(d1d1 - 4 * d0d0d0)
        # Re(conj(D1) s) < 0 means D1 - s is the longer sum.
        s = np.where(d1.real * s.real + d1.imag * s.imag < 0, -s, s)
        longer = d1 + s
        half = 0.5 * longer
        k = np.empty_like(half)
        angle = np.angle(half) / 3
        modulus = np.cbrt(np.abs(half))
        k.real = np.where(half.imag == 0, np.cbrt(half.real), modulus * np.cos(angle))
        k.imag = np.where(half.imag == 0, 0.0, modulus * np.sin(angle))
        wk = np.stack([k, _OMEGA * k, _OMEGA.conjugate() * k])
        z = -(b + wk + d0 / wk) / 3
        z = np.where(k == 0, -b / 3, z)
        return _newton_step(c, z)


def _real_cubic(h: np.ndarray):
    """:func:`cubic_rows` on real rows, root-major ``h`` (4, rows), in
    float64.  With D0, D1 and D1^2 - 4 D0^3 as there, a negative
    discriminant means three real roots, -(B + 2 sqrt(D0) cos(t + 2 pi j/3))/3
    with t = atan2(sqrt(4 D0^3 - D1^2), D1)/3, the real parts of the
    complex form; otherwise K is the real cube root of (D1 + s)/2, the
    real root is -(B + K + D0/K)/3 and the pair is
    -(B - (K + D0/K)/2)/3 +- i (K - D0/K)/(2 sqrt 3), lower first."""
    rows = h.shape[1]
    c = h / np.abs(h).max(axis=0)
    lead = c[3]
    b = c[2] / lead
    cc = c[1] / lead
    dd = c[0] / lead
    bb = b * b
    d0 = bb - 3 * cc
    d1 = 2 * (bb * b) - 9 * (b * cc) + 27 * dd
    disc = d1 * d1 - 4 * (d0 * d0 * d0)
    s = np.sqrt(np.abs(disc))
    three = disc < 0
    z = np.empty((3, rows))
    if three.any():
        z[:] = -(b + 2 * np.sqrt(d0) * np.cos(np.arctan2(s, d1) / 3 + _THIRDS)) / 3
    pair = np.zeros(rows, dtype=bool)
    one = np.flatnonzero(~three)
    if one.size:
        b1, d01, d11, s1 = b[one], d0[one], d1[one], s[one]
        k = np.cbrt(0.5 * (d11 + np.where(d11 < 0, -s1, s1)))
        t = d01 / k
        triple = k == 0
        z[0, one] = np.where(triple, -b1 / 3, -(b1 + k + t) / 3)
        z[1:, one] = np.where(triple, -b1 / 3, -(b1 - 0.5 * (k + t)) / 3)
        im = np.where(triple, 0.0, (k - t) / (2 * math.sqrt(3)))
        pair[one] = im != 0
    if not pair.any():
        z, converged = _newton_step(c, z)
        return z + 0j, converged
    z = z.astype(complex)
    im = np.abs(im[pair[one]])
    z.imag[1, pair] = -im
    z.imag[2, pair] = im
    z, converged = _newton_step(c, z)
    return _conjugate_closed(z, pair), converged


def _conjugate_closed(z: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """The roots ``z`` (rows, n) of real rows, closed under conjugation:
    on the rows that ``pair`` marks the last two roots are the second to
    last and its conjugate, lower first, and every other root is real.
    Real roots have imaginary part +0, and a zero real part is +0."""
    out = z.real + 0j
    if pair.any():
        upper = z[pair, -2]
        out.real[pair, -2:] = (upper.real + 0.0)[:, None]
        out.imag[pair, -2] = -np.abs(upper.imag)
        out.imag[pair, -1] = np.abs(upper.imag)
    return out


def _newton_step(c: np.ndarray, z: np.ndarray):
    """The tail of the closed forms: the residual test of
    :func:`aberth_rows` on the roots ``z`` (degree, rows) of the scaled
    root-major coefficients ``c``, then one Newton step z - p/p' on each
    root, kept where it is finite and |p| does not rise.  A zero
    derivative (a double root) or an overflow gives a step that is not
    finite, and the root keeps its closed form.  Real roots divide as
    p * (1 / p'), as a complex division by a real divisor does.  Returns
    the roots (rows, degree) and the mask of the rows whose closed-form
    roots all meet the test."""
    pv = horner(c, z)
    abs_pv = np.abs(pv)
    converged = (abs_pv <= RESIDUAL_TOL * np.maximum(horner(np.abs(c), np.abs(z)), 1e-300)
                 ).all(axis=0)
    dv = horner(derivative(c), z)
    moved = z - (pv / dv if z.dtype.kind == "c" else pv * (1 / dv))
    better = np.isfinite(moved) & (np.abs(horner(c, moved)) <= abs_pv)
    return np.where(better, moved, z).T, converged


def rows_roots(h: np.ndarray, real=None):
    """All roots of each row of ``h`` (rows, n + 1), n >= 1: the closed
    form for n = 2 and n = 3, the Aberth iteration otherwise, and the
    companion matrix for the rows that fail the residual test in either.

    A float ``h`` is real rows: their closed forms run in float64 and give
    real roots with imaginary part +0 and complex roots in exact conjugate
    pairs.  ``real`` marks the rows of a complex ``h`` whose imaginary
    parts are zero, which get the same roots as in a float ``h``: the
    quadratic closed form pairs them in place, with the same bits, and
    cubic rows are solved again by the float64 form.  The rows of the
    other engines come out as they are, for :func:`pair_rows`.

    Returns the roots (rows, n) and a mask of the rows solved in closed
    form, whose roots have taken their Newton step; the roots of the other
    rows are for :func:`polish_rows`.  Raises RootFindingFailure when a
    companion root fails its residual test.
    """
    n = h.shape[1] - 1
    if n == 2:
        z, converged = quadratic_rows(h, real)
    elif n == 3:
        z, converged = cubic_rows(h)
        if h.dtype.kind == "c" and real is not None and real.any():
            at = np.flatnonzero(real)
            z[at], converged[at] = cubic_rows(h[at].real)
    else:
        z, converged = aberth_rows(np.asarray(h, dtype=complex))
    if not converged.all():
        z[~converged] = companion_rows(h[~converged])
    return z, converged & (n in (2, 3))


def pair_rows(z: np.ndarray) -> np.ndarray:
    """The roots ``z`` (rows, n) of real polynomials closed under
    conjugation.  A root nearer its own conjugate than any other root's
    is real and gets imaginary part +0; two roots each nearest the
    other's conjugate are a pair, the one of larger imaginary part (the
    later slot on a tie) and its exact conjugate.  A row whose roots do
    not pair off so keeps them."""
    n = z.shape[1]
    slots = np.arange(n)
    # partner[r, i]: the root of row r nearest conj(z[r, i]).
    partner = np.argmin(np.abs(z[:, None, :] - np.conj(z)[:, :, None]), axis=2)
    paired = (np.take_along_axis(partner, partner, axis=1) == slots).all(axis=1)
    mate = np.take_along_axis(z, partner, axis=1)
    upper = (z.imag > mate.imag) | ((z.imag == mate.imag) & (slots > partner))
    out = np.where(partner == slots, z.real + 0j, np.where(upper, z, np.conj(mate)))
    return np.where(paired[:, None], out, z)


def polish_rows(h: np.ndarray, z: np.ndarray, multiplicity=1) -> np.ndarray:
    """Three multiplicity-corrected Newton steps ``z -= m p/p'`` on every
    root of every row of the unnormalised ``h``, keeping the iterate of
    least residual.  For an m-fold root this converges quadratically where
    the plain Newton step would stall at linear rate.  Real rows are
    polished as complex ones with zero imaginary parts."""
    h = np.ascontiguousarray(h.T, dtype=complex)
    z = np.ascontiguousarray(z.T)
    dh = derivative(h)
    pv = horner(h, z)
    best, best_res = z, np.abs(pv)
    stepping = np.ones(z.shape, dtype=bool)
    for _ in range(_POLISH_STEPS):
        dv = horner(dh, z)
        stepping &= dv != 0
        moved = z - multiplicity * pv / dv
        stepping &= np.isfinite(moved)
        res = horner(h, moved)
        abs_res = np.abs(res)
        better = stepping & (abs_res <= best_res)
        best = np.where(better, moved, best)
        best_res = np.where(better, abs_res, best_res)
        z = np.where(stepping, moved, z)
        pv = np.where(stepping, res, pv)
    return best.T


def companion_roots(coeffs) -> np.ndarray:
    """:func:`companion_rows` on one polynomial; exact zero leading
    coefficients are ignored."""
    c = trim(coeffs)
    if c.size <= 1:
        return np.zeros(0, dtype=complex)
    return companion_rows(c[None])[0]


def aberth_roots(coeffs) -> np.ndarray:
    """All complex roots of a polynomial, with multiplicity as repeats.

    Parameters
    ----------
    coeffs : array_like
        Ascending coefficients; exact zero leading entries are ignored.

    Returns
    -------
    ndarray of complex roots, length equal to the (trimmed) degree.
    Multiple roots come out as tight clusters, to be merged by the caller.

    Raises
    ------
    RootFindingFailure
        If neither :func:`rows_roots`'s engine for the degree (the closed
        form of a quadratic or a cubic, the simultaneous iteration
        otherwise) nor the companion fallback meets the residual criterion.
    """
    c = trim(coeffs)
    # Exact zero low-order coefficients contribute roots at the origin.
    zeros_at_origin = 0
    while c.size > 1 and c[0] == 0:
        c = c[1:]
        zeros_at_origin += 1
    head = np.zeros(zeros_at_origin, dtype=complex)
    if c.size == 1:
        return head
    return np.concatenate([head, rows_roots(c[None, :])[0][0]])


def polish_root(coeffs, z0: complex, multiplicity: int) -> complex:
    """:func:`polish_rows` on one root of one polynomial."""
    c = np.asarray(coeffs, dtype=complex).reshape(1, -1)
    with np.errstate(all="ignore"):
        return complex(polish_rows(c, np.array([[complex(z0)]]), multiplicity)[0, 0])
