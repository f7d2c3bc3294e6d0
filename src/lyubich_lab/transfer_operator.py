"""The fiber-averaging (Frobenius-Perron) transfer operator.

Applying the operator to a function a gives the new function
``w -> (1/n) * sum over R(z) = w of branch_index(z) * a(z)``.
Results are returned as lazily evaluable closures over fiber solves, so
compositions needed elsewhere stay exact.  The closures are array
functions: each point array they are evaluated on (a table, the sup
norm's sample, or a single point) has its fibers solved at once by one
``preimage_solver.gather_fibers`` call and averaged as segment sums.
``apply_transfer`` is the one-point front that memoizes its fiber per
(map, point) in a ``functools.lru_cache``, so evaluating it at a point
again reuses the solve.  Powers solve their backward orbit with
``gather_fibers`` too, one table per level, and keep the tables of the
most recent orbit, so further powers at the same point, of any function,
reuse its levels.

The density symbol of the invariant measure is the transfer of the
constant one, identically one here; the unitality checks in the test
suite pin that down.
"""

from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded
from .preimage_solver import DEFAULT_BUDGET, WeightedPreimage, gather_fibers, preimages
from .rational_map import RationalMap
from .sphere import SpherePoint, as_point
from .test_functions import TestFunction

_CACHE_CAPACITY = 1 << 16


@lru_cache(maxsize=_CACHE_CAPACITY)
def _solve(rmap: RationalMap, infinite: bool, re: float, im: float) -> WeightedPreimage:
    return preimages(rmap, SpherePoint(complex(re, im), infinite))


def cached_fiber(rmap: RationalMap, w) -> WeightedPreimage:
    """Memoized fiber solve; safe under concurrent access."""
    p = as_point(w)
    return _solve(rmap, p.infinite, p.value.real, p.value.imag)


# The most recent backward orbit as (key, tables) in a one-slot list,
# keyed like ``_solve``: tables[k] is the fiber table over level k.  The
# slot's entry is replaced whole, never changed in place, so a concurrent
# reader sees a whole orbit or the one before it; concurrent writers may
# repeat a solve but not corrupt one.
_orbit: list = [(None, ())]


def clear_fiber_cache() -> None:
    """Forget every memoized solve: the per-point fibers and the orbit."""
    _solve.cache_clear()
    _orbit[0] = (None, ())


def apply_transfer(rmap: RationalMap, a: TestFunction, w) -> complex:
    """One application of the transfer operator evaluated at a point,
    through the memoized fiber of ``cached_fiber``."""
    atoms = cached_fiber(rmap, w).atoms
    values = a.evaluate(np.array([p.value for p, _ in atoms]),
                        np.array([p.infinite for p, _ in atoms]))
    return sum(mult * value for (_, mult), value in zip(atoms, values)) / rmap.degree


def transfer_power(rmap: RationalMap, a: TestFunction, m: int, w) -> complex:
    """m-fold application at a point, level by level over the backward orbit.

    Solves the fibers over each level of the orbit of w in one
    ``gather_fibers`` table, evaluates a once on the deepest level, and
    averages the values back up the tables.  The orbit is the one the
    tree builders enumerate, with the same engine, but summed in fiber
    order rather than read from a tree.  The tables of the last orbit are
    kept: a later call at the same point on the same map reuses the levels
    it needs and solves only the missing deeper ones, from the deepest
    kept table, so every value equals a cold solve's bit for bit;
    ``clear_fiber_cache()`` releases the kept tables.  Raises
    BudgetExceeded, before any solve, when degree**m exceeds the tree
    builders' atom budget.
    """
    if m < 0:
        raise ValueError("power must be non-negative")
    p = as_point(w)
    if m == 0:
        return complex(a(p))
    if rmap.degree ** m > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"degree**m = {rmap.degree ** m} exceeds the atom budget {DEFAULT_BUDGET}")
    key = (rmap, p.infinite, p.value.real, p.value.imag)
    known, tables = _orbit[0]
    if known != key:
        tables = ()
    if len(tables) < m:
        if tables:
            points, inf_mask = tables[-1].points, tables[-1].inf_mask
        else:
            points, inf_mask = np.array([p.value], dtype=complex), np.array([p.infinite])
        for _ in range(m - len(tables)):
            fib = gather_fibers(rmap, points, inf_mask)
            tables += (fib,)
            points, inf_mask = fib.points, fib.inf_mask
        _orbit[0] = (key, tables)
    tables = tables[:m]
    values = a.evaluate(tables[-1].points, tables[-1].inf_mask)
    for fib in reversed(tables):
        values = fib.average(values)
    return complex(values[0])


def _fiber_average(rmap: RationalMap, a: TestFunction, name: str) -> TestFunction:
    """The closure w -> (1/n) sum over R(z) = w of e(z) a(z), which solves
    each point array it is evaluated on with one ``gather_fibers`` call."""
    def average(points, inf_mask):
        fib = gather_fibers(rmap, points.ravel(), inf_mask.ravel())
        return fib.average(a.evaluate(fib.points, fib.inf_mask)).reshape(points.shape)

    return TestFunction.from_callable(average, name)


def transfer_function(rmap: RationalMap, a: TestFunction) -> TestFunction:
    """The transfer of a, as an evaluable closure."""
    return _fiber_average(rmap, a, f"L[{a.name}]")


def _power_sum_polynomials(rmap: RationalMap, top: int) -> list[np.ndarray]:
    """Power sums of the fiber over w as polynomials in w (Newton's
    identities); valid for polynomial maps, where the fiber polynomial's
    leading coefficient does not depend on w.

    The fiber solves P(z) - w*den0 = 0, so only the product of the roots
    (the top elementary symmetric function) carries the w-dependence.
    """
    n = rmap.degree
    lead = rmap._num_pad[n]
    den0 = rmap.den[0]
    elementary = [np.array([1.0 + 0j])]
    for i in range(1, n + 1):
        sign = (-1.0) ** i
        if i < n:
            e = np.array([sign * rmap._num_pad[n - i] / lead], dtype=complex)
        else:
            e = np.array([sign * rmap._num_pad[0] / lead,
                          -sign * den0 / lead], dtype=complex)
        elementary.append(e)
    sums = [np.array([float(n)], dtype=complex)]
    for k in range(1, top + 1):
        acc = np.zeros(1, dtype=complex)
        for i in range(1, min(k - 1, n) + 1):
            term = np.convolve(elementary[i], sums[k - i]) * ((-1.0) ** (i - 1))
            acc = _poly_add(acc, term)
        if k <= n:
            acc = _poly_add(acc, ((-1.0) ** (k - 1)) * k * elementary[k])
        sums.append(acc)
    return sums


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    size = max(a.size, b.size)
    out = np.zeros(size, dtype=complex)
    out[: a.size] += a
    out[: b.size] += b
    return out


def _closed_form_transfer(rmap: RationalMap, a: TestFunction) -> TestFunction | None:
    """The transfer of a as an exact polynomial, when a is a polynomial in
    pure powers of z or conj(z) and the map itself is a polynomial; None
    otherwise.  The tests read it as an oracle."""
    if a.kind != "poly" or rmap.den.size != 1:
        return None
    keys = list(a._coeffs)
    if any(j > 0 and k > 0 for j, k in keys):
        return None
    top = max((max(j, k) for j, k in keys), default=0)
    sums = _power_sum_polynomials(rmap, top)
    n = rmap.degree
    coeffs: dict = {}
    for (j, k), c in a._coeffs.items():
        if j == 0 and k == 0:
            coeffs[(0, 0)] = coeffs.get((0, 0), 0j) + c
            continue
        if k == 0:
            poly = sums[j] / n
            for i, b in enumerate(poly):
                if b != 0:
                    coeffs[(i, 0)] = coeffs.get((i, 0), 0j) + c * b
        else:
            # sum of conj(z)^k over the fiber is the conjugate power sum
            poly = sums[k] / n
            for i, b in enumerate(poly):
                if b != 0:
                    coeffs[(0, i)] = coeffs.get((0, i), 0j) + c * b.conjugate()
    return TestFunction.polynomial(coeffs, name=f"L[{a.name}] closed form")


def inner_product(rmap: RationalMap, xi: TestFunction, eta: TestFunction) -> TestFunction:
    """The module inner product: the transfer of conj(xi) * eta.

    Conjugate-symmetric, and positive on the diagonal since each fiber
    term is branch_index * |xi|^2.
    """
    return _fiber_average(rmap, xi.conj() * eta, f"<{xi.name},{eta.name}>")


def sup_norm_2(rmap: RationalMap, xi: TestFunction, sample) -> float:
    """Max over the sample of sqrt(<xi, xi>), the bimodule 2-norm estimate.

    Monotone under sample refinement.
    """
    points = [as_point(w) for w in sample]
    if not points:
        raise ValueError("sample must be nonempty")
    square = inner_product(rmap, xi, xi).evaluate(np.array([p.value for p in points]),
                                                  np.array([p.infinite for p in points]))
    return float(np.max(square.real)) ** 0.5
