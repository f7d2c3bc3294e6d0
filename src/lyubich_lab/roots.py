"""Polynomial root finding for the preimage machinery.

One engine finds roots: the simultaneous Aberth-Ehrlich iteration run on
a stack of polynomials of one degree at once, as a ``(rows, degree + 1)``
array (Aberth, Math. Comp. 27, 1973; Bini, Numer. Algorithms 13, 1996).
Rows that miss the residual test within ``MAX_ITERATIONS`` take the
eigenvalues of their companion matrices, in one stacked call.  The
scalar functions :func:`aberth_roots` and :func:`polish_root` are one-row
fronts of the same code.  Coefficients are ascending throughout the
package: ``c[k]`` multiplies ``z**k``.
"""

import cmath
import math

import numpy as np

from .errors import RootFindingFailure

MAX_ITERATIONS = 200
# A candidate is accepted as a root when |p(z)| falls below this times the
# evaluation scale sum(|c_k| |z|^k); this is a backward-error criterion.
RESIDUAL_TOL = 1e-12


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


def polyval(coeffs, z):
    """Evaluate an ascending-coefficient polynomial by Horner's rule."""
    c = np.asarray(coeffs, dtype=complex)
    result = np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0j
    for k in range(c.size - 1, -1, -1):
        result = result * z + c[k]
    return result


def derivative(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def taylor_shift(coeffs, z0: complex) -> np.ndarray:
    """Coefficients of p(z0 + t) as a polynomial in t.

    Repeated synthetic division by (z - z0); the k-th remainder is the
    k-th Taylor coefficient.
    """
    work = list(np.asarray(coeffs, dtype=complex).ravel())
    n = len(work)
    out = np.zeros(n, dtype=complex)
    z0 = complex(z0)
    for i in range(n):
        top = len(work) - 1
        if top == 0:
            out[i] = work[0]
            break
        quotient = [0j] * top
        carry = work[top]
        for j in range(top - 1, -1, -1):
            quotient[j] = carry
            carry = work[j] + z0 * carry
        out[i] = carry
        work = quotient
    return out


def rows_eval(c: np.ndarray, z: np.ndarray) -> np.ndarray:
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


def aberth_rows(h: np.ndarray):
    """Simultaneous Aberth iteration on each row of ``h`` (rows, n + 1),
    n >= 1, with a nonzero leading coefficient in every row.

    A root stops moving once it meets the residual test; the update is
    Jacobi (every root moves against the previous iterate), so each row's
    answer does not depend on the other rows.  Returns the roots (rows, n)
    and a mask of the rows that converged within ``MAX_ITERATIONS``.
    """
    rows, n = h.shape[0], h.shape[1] - 1
    c = h / np.abs(h).max(axis=1, keepdims=True)
    radius = 1.0 + np.abs(c[:, :n] / c[:, n:]).max(axis=1)
    z = radius[:, None] * np.array([cmath.exp(2j * math.pi * (k / n + 0.3779))
                                    for k in range(n)])
    # Work on the rows still iterating only; ``live`` maps them back.
    live = np.arange(rows)
    zi, ci, dci = z, c, c[:, 1:] * np.arange(1, n + 1)
    abs_ci = np.abs(c)
    done = np.zeros(z.shape, dtype=bool)
    for _ in range(MAX_ITERATIONS):
        pv, scale = _rows_eval_with_scale(ci, abs_ci, zi)
        done |= np.abs(pv) <= RESIDUAL_TOL * np.maximum(scale, 1e-300)
        busy = ~done.all(axis=1)
        z[live[~busy]] = zi[~busy]
        if not busy.any():
            live = live[busy]
            break
        if not busy.all():
            live, zi, ci, dci, abs_ci, done, pv = (
                a[busy] for a in (live, zi, ci, dci, abs_ci, done, pv))
        dv = rows_eval(dci, zi)
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


def companion_rows(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of the rows of ``h``
    (rows, n + 1), in one stacked call, each root held to a loose residual
    test: multiple roots legitimately stop near sqrt(eps) accuracy."""
    n = h.shape[1] - 1
    mats = np.zeros((h.shape[0], n, n), dtype=complex)
    mats[:, 0, :] = -h[:, n - 1::-1] / h[:, n:]
    mats[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    try:
        z = np.linalg.eigvals(mats)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure("companion eigenvalue solve failed") from exc
    c = h / np.abs(h).max(axis=1, keepdims=True)
    pv, scale = _rows_eval_with_scale(c, np.abs(c), z)
    bad = ~(np.abs(pv) <= 1e-6 * np.maximum(scale, 1e-300))
    if bad.any():
        raise RootFindingFailure(
            f"root finder did not converge (residual {np.abs(pv)[bad].max():.3e})")
    return z


def rows_roots(h: np.ndarray) -> np.ndarray:
    """All roots of each row of ``h`` (rows, n + 1), n >= 1: the Aberth
    iteration, and the companion matrix for the rows it leaves unconverged.

    Raises RootFindingFailure when a companion root fails its residual test.
    """
    z, converged = aberth_rows(h)
    if not converged.all():
        z[~converged] = companion_rows(h[~converged])
    return z


def polish_rows(h: np.ndarray, z: np.ndarray, multiplicity=1, steps: int = 3) -> np.ndarray:
    """The multiplicity-corrected Newton step ``z -= m p/p'`` on every root
    of every row of the unnormalised ``h``, keeping the iterate of least
    residual.  For an m-fold root this converges quadratically where the
    plain Newton step would stall at linear rate."""
    n = h.shape[1] - 1
    dh = h[:, 1:] * np.arange(1, n + 1)
    pv = rows_eval(h, z)
    best, best_res = z, np.abs(pv)
    stepping = np.ones(z.shape, dtype=bool)
    for _ in range(steps):
        dv = rows_eval(dh, z)
        stepping &= dv != 0
        moved = z - multiplicity * pv / dv
        stepping &= np.isfinite(moved)
        res = rows_eval(h, moved)
        abs_res = np.abs(res)
        better = stepping & (abs_res <= best_res)
        best = np.where(better, moved, best)
        best_res = np.where(better, abs_res, best_res)
        z = np.where(stepping, moved, z)
        pv = np.where(stepping, res, pv)
    return best


def companion_roots(coeffs) -> np.ndarray:
    """Roots via the companion matrix (numpy's eigenvalue routine)."""
    c = trim(coeffs)
    if c.size <= 1:
        return np.zeros(0, dtype=complex)
    try:
        r = np.roots(c[::-1])
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure("companion eigenvalue solve failed") from exc
    if not np.all(np.isfinite(r)):
        raise RootFindingFailure("companion roots are not finite")
    return r


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
        If neither the simultaneous iteration nor the fallback meets the
        residual criterion.
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
    return np.concatenate([head, rows_roots(c[None, :])[0]])


def polish_root(coeffs, z0: complex, multiplicity: int, steps: int = 3) -> complex:
    """:func:`polish_rows` on one root of one polynomial."""
    c = np.asarray(coeffs, dtype=complex).reshape(1, -1)
    with np.errstate(all="ignore"):
        return complex(polish_rows(c, np.array([[complex(z0)]]), multiplicity, steps)[0, 0])
