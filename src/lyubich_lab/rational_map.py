"""Arithmetic and local structure of a rational map on the Riemann sphere.

A map is the quotient of two coprime polynomials of degree at least two
overall.  Everything here is chart-aware: evaluation, local (branch)
degree, critical points, and the search for exceptional points all treat
infinity as an ordinary point by switching to the reciprocal coordinate.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _fiber, roots
from .errors import InvalidMapError, RootFindingFailure
from .sphere import INFINITY, SpherePoint, as_point, chordal

# Switch to the reciprocal chart beyond this modulus to keep evaluation
# well-conditioned in double precision.
CHART_LIMIT = 1e8

# Relative tolerance for the order of vanishing of shifted coefficients
# (local-degree and multiplicity detection).
_ORDER_TOL = 1e-7

# Relative tolerance for the coprimality check, |P(root of Q)| < tol * scale.
_COPRIME_TOL = 1e-9

_uid_counter = itertools.count(1)


@dataclass(frozen=True)
class CriticalDatum:
    """A critical point together with its local (branch) degree."""

    point: SpherePoint
    index: int


class RationalMap:
    """A rational map R = P/Q of degree >= 2, immutable after construction.

    Parameters
    ----------
    num, den : sequences of complex
        Ascending coefficients of P and Q.  Exact zero leading entries are
        trimmed; what remains must have nonzero leading coefficients, share
        no common root, and give max(deg P, deg Q) >= 2.
    name : str, optional
        Label used in reports.
    """

    __slots__ = ("num", "den", "degree", "name", "_uid", "_num_pad", "_den_pad",
                 "_num_rev", "_den_rev", "_wronskian", "_cache")

    def __init__(self, num, den, name: str | None = None):
        num = _exact_trim(num)
        den = _exact_trim(den)
        if np.all(den == 0):
            raise InvalidMapError("denominator is the zero polynomial")
        if np.all(num == 0):
            raise InvalidMapError("numerator is the zero polynomial")
        degree = max(num.size, den.size) - 1
        if degree < 2:
            raise InvalidMapError(f"degree {degree} < 2")
        _check_coprime(num, den)

        self.num = num
        self.den = den
        self.degree = degree
        self.name = name
        self._uid = next(_uid_counter)
        self._num_pad = np.concatenate([num, np.zeros(degree + 1 - num.size, dtype=complex)])
        self._den_pad = np.concatenate([den, np.zeros(degree + 1 - den.size, dtype=complex)])
        self._num_rev = self._num_pad[::-1].copy()
        self._den_rev = self._den_pad[::-1].copy()
        self._wronskian = None
        self._cache = {}

    # RationalMap is immutable in spirit; hashing by identity token keeps
    # instances usable as memoization keys.
    def __hash__(self):
        return hash(self._uid)

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        label = self.name or f"deg{self.degree}"
        return f"RationalMap<{label}>"

    def describe(self) -> dict:
        return {
            "name": self.name,
            "degree": self.degree,
            "num": [[c.real, c.imag] for c in self.num],
            "den": [[c.real, c.imag] for c in self.den],
        }

    def wronskian(self) -> np.ndarray:
        """Coefficients of P'Q - PQ', the numerator of the derivative."""
        if self._wronskian is None:
            pd = roots.derivative(self.num)
            qd = roots.derivative(self.den)
            a = np.convolve(pd, self.den)
            b = np.convolve(self.num, qd)
            size = max(a.size, b.size)
            a = np.concatenate([a, np.zeros(size - a.size, dtype=complex)])
            b = np.concatenate([b, np.zeros(size - b.size, dtype=complex)])
            self._wronskian = roots.trim(a - b, 1e-12)
        return self._wronskian


def _exact_trim(coeffs) -> np.ndarray:
    c = np.asarray(list(coeffs), dtype=complex).ravel()
    if c.size == 0:
        raise InvalidMapError("empty coefficient list")
    if not np.all(np.isfinite(c)):
        raise InvalidMapError("coefficients must be finite")
    return roots.trim(c)


def _check_coprime(num: np.ndarray, den: np.ndarray) -> None:
    if den.size <= 1:
        return
    for root in roots.aberth_roots(den):
        value = roots.horner(num, root)
        scale = sum(abs(c) * max(1.0, abs(root)) ** k for k, c in enumerate(num))
        if abs(value) < _COPRIME_TOL * max(scale, 1e-300):
            raise InvalidMapError(
                f"numerator and denominator share a root near {root:.6g}")


# ----------------------------------------------------------------------
# evaluation


def evaluate(rmap: RationalMap, z) -> SpherePoint:
    """Apply the map to a sphere point: :func:`evaluate_array` on one point."""
    p = as_point(z)
    w, w_inf = evaluate_array(rmap, np.array([p.value]), np.array([p.infinite]))
    return INFINITY if w_inf[0] else SpherePoint(complex(w[0]))


def evaluate_array(rmap: RationalMap, points: np.ndarray, inf_mask: np.ndarray):
    """Apply the map to a complex array with its infinity mask, total on
    the sphere; returns the images and their infinity mask.

    Uses the direct chart for moderate |z| and the reciprocal chart
    s = 1/z at infinity (s = 0) or beyond the chart limit; poles map to
    infinity.
    """
    points = np.asarray(points, dtype=complex)
    inf_mask = np.asarray(inf_mask, dtype=bool)
    out = np.zeros(points.shape, dtype=complex)
    out_inf = np.zeros(points.shape, dtype=bool)
    big = inf_mask | (np.abs(points) > CHART_LIMIT)
    with np.errstate(divide="ignore", invalid="ignore"):
        charts = ((~big, points[~big], rmap.num, rmap.den),
                  (big, np.where(inf_mask[big], 0j, 1.0 / points[big]),
                   rmap._num_rev, rmap._den_rev))
        for chart, z, num, den in charts:
            a = roots.horner(num, z)
            b = roots.horner(den, z)
            w = a / b
            bad = (b == 0) | ~np.isfinite(w)
            out[chart] = np.where(bad, 0j, w)
            out_inf[chart] = bad
    return out, out_inf


# ----------------------------------------------------------------------
# local structure


def _taylor(c: np.ndarray, z0: complex) -> np.ndarray:
    """The Taylor coefficients p^(k)(z0)/k! of the polynomial ``c`` at z0."""
    out = np.empty(c.size, dtype=complex)
    for k in range(c.size):
        out[k] = roots.horner(c, z0) / math.factorial(k)
        c = roots.derivative(c)
    return out


def branch_index(rmap: RationalMap, z) -> int:
    """Local degree of the map at a point: e(c) at a critical point c, and
    1 away from them.  The resolution is the lab's: a point within
    ``_fiber.CLUSTER_RADIUS`` = 1e-6 chordal of c, where the lab treats
    points as one, may read e(c) (points 2e-9 from 0 or infinity of z^2
    do), while the test maps read 1 from 1e-5 out.

    Computed as the order of vanishing of the Taylor coefficients of
    P - R(z) Q at the point (or of Q at a pole), in the reciprocal chart
    when the point is at or near infinity.
    """
    p = as_point(z)
    if p.infinite:
        num, den, z0 = rmap._num_rev, rmap._den_rev, 0j
    elif abs(p.value) > CHART_LIMIT:
        num, den, z0 = rmap._num_rev, rmap._den_rev, 1.0 / p.value
    else:
        num, den, z0 = rmap._num_pad, rmap._den_pad, p.value

    b = _taylor(den, z0)
    tol_b = _ORDER_TOL * np.max(np.abs(b))
    if abs(b[0]) <= tol_b:
        # Pole: local degree equals the order of the zero of the denominator.
        for k in range(1, b.size):
            if abs(b[k]) > tol_b:
                return k
        raise RootFindingFailure("denominator vanishes to full tested order")

    a = _taylor(num, z0)
    w0 = a[0] / b[0]
    h = a - w0 * b
    tol_h = _ORDER_TOL * max(np.max(np.abs(h)), 1e-300)
    for k in range(1, h.size):
        if abs(h[k]) > tol_h:
            return k
    raise RootFindingFailure("could not determine the local degree")


def critical_points(rmap: RationalMap) -> list[CriticalDatum]:
    """All points of local degree >= 2, each once, including infinity when
    branched.

    The finite candidates are the roots of the Wronskian P'Q - PQ', where a
    critical point of index e is a root of multiplicity e - 1.  Each root
    starts a cluster of itself and its nearest remaining roots, largest
    size first.  The centre of a cluster of size s is a simple root of the
    (s - 1)-th derivative of the Wronskian, and Newton there places it to
    rounding; the cluster is accepted when it is nearer its centre than
    every other root and the local degree there is s + 1.  The result always satisfies the Riemann-Hurwitz count
    sum(index - 1) = 2 * degree - 2 exactly, or an error is raised.  For
    a map with real coefficients the list is closed under conjugation to
    the bit: real points have imaginary part +0 and the others come in
    exact conjugate pairs.

    This list is the branched-point set used downstream: the basis
    machinery treats the members that meet the Julia set as the branch
    points requiring sector elements, and the fiber engine puts its
    multiple roots at them.
    """
    cached = rmap._cache.get("critical")
    if cached is not None:
        return cached

    w = rmap.wronskian()
    found = roots.aberth_roots(w) if w.size > 1 else np.zeros(0, dtype=complex)
    # Branching at infinity is detected directly; drop near-infinite noise.
    found = found[np.abs(found) <= _fiber._NEAR_INFINITY]

    data = []
    left = np.ones(found.size, dtype=bool)
    while left.any():
        idx = np.flatnonzero(left)
        near = idx[np.argsort(np.abs(found[idx] - found[idx[0]]), kind="stable")]
        taken = near[:1]
        for size in range(min(near.size, rmap.degree - 1), 0, -1):
            # A root of W of multiplicity s is a simple root of W^(s-1).
            dw = w
            for _ in range(size - 1):
                dw = roots.derivative(dw)
            center = roots.polish_root(dw, found[near[:size]].mean(), 1)
            dist = np.abs(found[near] - center)
            if (dist[:size].max() < dist[size:].min(initial=np.inf)
                    and branch_index(rmap, SpherePoint(center)) == size + 1):
                data.append(CriticalDatum(SpherePoint(center), size + 1))
                taken = near[:size]
                break
        left[taken] = False
    if has_real_coefficients(rmap):
        data = _paired_critical_points(data)
    e_inf = branch_index(rmap, INFINITY)
    if e_inf >= 2:
        data.append(CriticalDatum(INFINITY, e_inf))

    total = sum(d.index - 1 for d in data)
    if total != 2 * rmap.degree - 2:
        raise RootFindingFailure(
            f"Riemann-Hurwitz mismatch: sum(e-1) = {total}, "
            f"expected {2 * rmap.degree - 2}")
    data.sort(key=lambda d: d.point.sort_key())
    rmap._cache["critical"] = data
    return data


def has_real_coefficients(rmap: RationalMap) -> bool:
    """Whether P and Q have real coefficients, so that R commutes with
    conjugation and maps the real line into the real line and infinity."""
    return not (rmap.num.imag.any() or rmap.den.imag.any())


def _paired_critical_points(data: list) -> list:
    """The finite critical points of a real map closed under conjugation
    to the bit, as :func:`roots.pair_rows` pairs them: a real point with
    imaginary part +0, a pair as its upper point and that point's exact
    conjugate.  They are kept as found if they do not pair off, or if a
    pair would join points of different indices."""
    if not data:
        return data
    z = roots.pair_rows(np.array([[d.point.value for d in data]]))[0].tolist()
    found = {(p, d.index) for p, d in zip(z, data)}
    if any((p.conjugate(), d.index) not in found for p, d in zip(z, data)):
        return data
    return [CriticalDatum(SpherePoint(p), d.index) for p, d in zip(z, data)]


def fixed_points(rmap: RationalMap) -> list[tuple[SpherePoint, complex | None]]:
    """Fixed points with multipliers R'(p) (None at a fixed infinity of
    branching order >= 2, where the multiplier is zero)."""
    cached = rmap._cache.get("fixed")
    if cached is not None:
        return cached
    f = np.concatenate([rmap._num_pad, [0j]]) - np.concatenate([[0j], rmap._den_pad])
    f = roots.trim(f, 1e-13)
    out = []
    if f.size > 1:
        raw = roots.aberth_roots(f)
        raw = raw[np.abs(raw) <= _fiber._NEAR_INFINITY]
        for point, mult in _fiber.cluster_points(raw, np.ones(raw.size, dtype=int)):
            z = roots.polish_root(f, point.value, mult)
            qv = complex(roots.horner(rmap.den, z))
            wv = complex(roots.horner(rmap.wronskian(), z))
            multiplier = wv / (qv * qv) if qv != 0 else None
            out.append((SpherePoint(z), multiplier))
    num_deg = rmap.num.size - 1
    den_deg = rmap.den.size - 1
    if num_deg > den_deg:
        if num_deg == den_deg + 1:
            multiplier = rmap.den[-1] / rmap.num[-1]
        else:
            multiplier = 0j
        out.append((INFINITY, multiplier))
    out.sort(key=lambda pm: pm[0].sort_key())
    rmap._cache["fixed"] = out
    return out


def exceptional_points(rmap: RationalMap) -> list[SpherePoint]:
    """The set of points with finite backward orbit (at most two).

    A point qualifies only when its fiber collapses to a single point and
    the collapse closes up into a fixed point or a two-cycle, so the
    candidates are the images of critical points of full branching order.
    """
    cached = rmap._cache.get("exceptional")
    if cached is not None:
        return cached
    n = rmap.degree
    critical = critical_points(rmap)
    candidates = []
    for datum in critical:
        if datum.index == n:
            candidates.append(evaluate(rmap, datum.point))

    found: list[SpherePoint] = []

    def record(p: SpherePoint):
        for q in found:
            if chordal(p, q) <= _fiber.CLUSTER_RADIUS:
                return
        found.append(p)

    for p in candidates:
        atoms = _fiber.solve_fiber(rmap._num_pad, rmap._den_pad, n, p, critical)
        if len(atoms) != 1:
            continue
        z1 = atoms[0][0]
        if chordal(z1, p) <= _fiber.CLUSTER_RADIUS:
            record(p)
            continue
        atoms2 = _fiber.solve_fiber(rmap._num_pad, rmap._den_pad, n, z1, critical)
        if len(atoms2) != 1:
            continue
        z2 = atoms2[0][0]
        if chordal(z2, p) <= _fiber.CLUSTER_RADIUS:
            record(p)
            record(z1)

    if len(found) > 2:
        raise RootFindingFailure("more than two exceptional candidates survived")
    found.sort(key=lambda q: q.sort_key())
    rmap._cache["exceptional"] = found
    return found


def is_exceptional(rmap: RationalMap, w) -> bool:
    p = as_point(w)
    return any(chordal(p, q) <= _fiber.CLUSTER_RADIUS
               for q in exceptional_points(rmap))


# ----------------------------------------------------------------------
# built-in maps

_BUILTIN_COEFFS = {
    "quad": ([0, 0, 1], [1]),
    "basilica": ([-1, 0, 1], [1]),
    "chebyshev": ([-2, 0, 1], [1]),
}


def builtin_map(name: str) -> RationalMap:
    """Named benchmark maps: quad (z^2), basilica (z^2-1), chebyshev (z^2-2)."""
    try:
        num, den = _BUILTIN_COEFFS[name]
    except KeyError:
        raise InvalidMapError(
            f"unknown map name {name!r}; choose from {sorted(_BUILTIN_COEFFS)}")
    return RationalMap(num, den, name=name)
