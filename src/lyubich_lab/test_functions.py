"""Closed-form evaluable functions on the sphere.

These play the role of the continuous / square-integrable functions fed to
quadrature and to the operator model: bivariate polynomials in (z, conj z)
and array closures, among them named analytic forms and pointwise tables
bound to a specific atom set.  Polynomials compose exactly under products and
conjugation, which keeps the operator identities free of interpolation
error.  A :class:`PolynomialBatch` holds many polynomials over one term
list, and a :class:`PowerTable` keeps the powers of a point array that
every polynomial evaluated on it reads.
"""

import numpy as np

from .errors import IncompatibleTable
from .sphere import as_point


class TestFunction:
    """An evaluable function on the sphere.

    Construct through the classmethods: :meth:`polynomial` for a
    coefficient table ``{(j, k): c}`` meaning ``sum c * z**j * conj(z)**k``,
    :meth:`from_callable` for array closures, and :meth:`from_table` for
    the closure of values bound to a fixed atom set.  :meth:`evaluate` is
    the one evaluation path; calling a function on a point evaluates it on
    a one-point array.
    """

    __slots__ = ("kind", "name", "_coeffs", "_fn")

    def __init__(self, kind, name, coeffs=None, fn=None):
        self.kind = kind
        self.name = name
        self._coeffs = coeffs
        self._fn = fn

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def polynomial(cls, coeffs: dict, name: str | None = None) -> "TestFunction":
        clean = {}
        for (j, k), c in coeffs.items():
            c = complex(c)
            if c != 0:
                clean[(int(j), int(k))] = c
        if name is None:
            name = _poly_name(clean)
        return cls("poly", name, coeffs=clean)

    @classmethod
    def constant(cls, c, name: str | None = None) -> "TestFunction":
        return cls.polynomial({(0, 0): c}, name=name or str(c))

    @classmethod
    def from_callable(cls, fn, name: str) -> "TestFunction":
        """Wrap ``fn(points, inf_mask)``, which returns the values on a
        complex array with its infinity mask, in the array's shape, and
        raises ValueError where the function is undefined (at infinity,
        say)."""
        return cls("callable", name, fn=fn)

    @classmethod
    def from_table(cls, points, inf_mask, values, name: str = "table") -> "TestFunction":
        """The closure of ``values`` at the atoms ``points``: it evaluates
        only at those atoms, matched exactly, and raises IncompatibleTable
        at any other point."""
        atoms = np.asarray(points, dtype=complex)
        atoms_inf = np.asarray(inf_mask, dtype=bool)
        values = np.asarray(values, dtype=complex)
        search = None

        def lookup(points, inf_mask):
            nonlocal search
            # The first of equal atoms wins.  Infinite points are keyed
            # inf + 0j, and a NaN sentinel, which sorts last, keeps every
            # search in range.  The table's own atom array, the common case,
            # needs no search; the sorted keys are kept from the first
            # search on.
            if (points.shape == atoms.shape and np.array_equal(inf_mask, atoms_inf)
                    and np.array_equal(points, atoms)):
                return values.copy()
            if search is None:
                keys = np.append(np.where(atoms_inf, np.inf, atoms), np.nan)
                order = np.argsort(keys, kind="stable")
                search = order, keys[order]
            order, keys = search
            query = np.where(inf_mask, np.inf, points).ravel()
            slots = np.searchsorted(keys, query)
            missing = np.flatnonzero(keys[slots] != query)
            if missing.size:
                z = complex(query[missing[0]])
                z = "inf" if np.isinf(z) else repr(z)
                raise IncompatibleTable(f"point {z} is not an atom of table {name}")
            return values.ravel()[order[slots]].reshape(points.shape)

        return cls.from_callable(lookup, name)

    # ------------------------------------------------------------------
    # evaluation

    def __call__(self, z) -> complex:
        p = as_point(z)
        return complex(self.evaluate(np.array([p.value]), np.array([p.infinite]))[0])

    def evaluate(self, points, inf_mask=None) -> np.ndarray:
        """The values on a complex array with its infinity mask (no infinite
        points when omitted), or on a :class:`PowerTable`, whose powers a
        polynomial reads."""
        table = as_power_table(points, inf_mask)
        if self.kind == "poly":
            return PolynomialBatch.of(self).evaluate(table)[0]
        return np.asarray(self._fn(table.points, table.inf_mask), dtype=complex)

    # ------------------------------------------------------------------
    # algebra

    def conj(self) -> "TestFunction":
        if self.kind == "poly":
            flipped = {(k, j): c.conjugate() for (j, k), c in self._coeffs.items()}
            return TestFunction.polynomial(flipped, name=f"conj({self.name})")
        return TestFunction.from_callable(
            lambda p, i: np.conj(self.evaluate(p, i)), f"conj({self.name})")

    def __mul__(self, other) -> "TestFunction":
        if np.isscalar(other) and not isinstance(other, TestFunction):
            return self._scale(complex(other))
        if not isinstance(other, TestFunction):
            return NotImplemented
        if self.kind == "poly" and other.kind == "poly":
            prod = PolynomialBatch.of(self) * PolynomialBatch.of(other)
            return TestFunction.polynomial(dict(zip(prod.keys, prod.coeffs[0])),
                                           name=f"({self.name})*({other.name})")
        return TestFunction.from_callable(
            lambda p, i: self.evaluate(p, i) * other.evaluate(p, i),
            f"({self.name})*({other.name})")

    def __rmul__(self, other):
        return self.__mul__(other)

    def __add__(self, other) -> "TestFunction":
        if np.isscalar(other) and not isinstance(other, TestFunction):
            other = TestFunction.constant(complex(other))
        if not isinstance(other, TestFunction):
            return NotImplemented
        if self.kind == "poly" and other.kind == "poly":
            total = dict(self._coeffs)
            for key, c in other._coeffs.items():
                total[key] = total.get(key, 0j) + c
            return TestFunction.polynomial(total, name=f"({self.name})+({other.name})")
        return TestFunction.from_callable(
            lambda p, i: self.evaluate(p, i) + other.evaluate(p, i),
            f"({self.name})+({other.name})")

    __radd__ = __add__

    def __sub__(self, other):
        if np.isscalar(other) and not isinstance(other, TestFunction):
            other = TestFunction.constant(complex(other))
        return self + (-1.0) * other

    def _scale(self, c: complex) -> "TestFunction":
        if self.kind == "poly":
            return TestFunction.polynomial(
                {jk: c * v for jk, v in self._coeffs.items()},
                name=f"{c}*({self.name})")
        return TestFunction.from_callable(
            lambda p, i: c * self.evaluate(p, i), f"{c}*({self.name})")

    def __repr__(self):
        return f"TestFunction<{self.kind}:{self.name}>"


def _poly_name(coeffs: dict) -> str:
    if not coeffs:
        return "0"
    parts = []
    for (j, k) in sorted(coeffs):
        term = ""
        if j:
            term += f"z^{j}" if j > 1 else "z"
        if k:
            term += f"zb^{k}" if k > 1 else "zb"
        parts.append(term or "1")
    return "+".join(parts)


# ----------------------------------------------------------------------
# polynomial batches and power tables


class PowerTable:
    """A point array with its infinity mask and the powers ``points**j``
    and ``conj(points)**k`` that polynomials read, each computed once, when
    first read, exactly as numpy computes it (``z**3`` is not
    ``(z*z)*z``).  The powers are read-only."""

    __slots__ = ("points", "inf_mask", "_powers")

    def __init__(self, points, inf_mask=None):
        self.points = np.asarray(points, dtype=complex)
        self.inf_mask = (np.zeros(self.points.shape, dtype=bool) if inf_mask is None
                         else np.asarray(inf_mask, dtype=bool))
        self._powers = {}

    def power(self, j: int, conjugate: bool = False) -> np.ndarray:
        """``points**j``, or ``conj(points)**j`` with ``conjugate``.  numpy's
        ``z**0`` is exactly 1 at every point, NaN and infinity included, so
        it is filled in, not computed."""
        key = (j, conjugate)
        if key not in self._powers:
            if j == 0:
                value = np.ones(self.points.shape, dtype=complex)
            elif conjugate:
                if "conj" not in self._powers:
                    self._powers["conj"] = np.conj(self.points)
                value = self._powers["conj"]**j
            else:
                value = self.points**j
            value.setflags(write=False)
            self._powers[key] = value
        return self._powers[key]


def as_power_table(points, inf_mask=None) -> PowerTable:
    """``points`` itself when it is a PowerTable, else a fresh one."""
    return points if isinstance(points, PowerTable) else PowerTable(points, inf_mask)


class PolynomialBatch:
    """Polynomials in (z, conj z) that share one term list: row i of the
    ``(rows, terms)`` matrix ``coeffs`` holds the coefficients of the terms
    ``keys``.  Evaluation gives one row of values per polynomial; an integer
    index gives that row as a :class:`TestFunction`, a slice a batch."""

    __slots__ = ("keys", "coeffs", "name")

    def __init__(self, keys, coeffs, name: str = "batch"):
        self.keys = tuple((int(j), int(k)) for j, k in keys)
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        self.name = name

    @classmethod
    def of(cls, f: TestFunction) -> "PolynomialBatch":
        """A polynomial TestFunction as a one-row batch."""
        if f.kind != "poly":
            raise TypeError(f"{f.name} is not a polynomial")
        return cls(list(f._coeffs), [list(f._coeffs.values())], f.name)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            return TestFunction.polynomial(dict(zip(self.keys, self.coeffs[rows])),
                                           name=self.name)
        return PolynomialBatch(self.keys, self.coeffs[rows], self.name)

    def evaluate(self, points, inf_mask=None) -> np.ndarray:
        """The values on a point array with its infinity mask, or on a
        :class:`PowerTable`: one row per polynomial, in the points' shape.

        This is the one polynomial evaluator.  Terms accumulate in key order
        as ``(c * z**j) * conj(z)**k`` on the table's named power arrays, so
        the product order does not depend on the array size (numpy runs
        ``x * temporary`` as ``temporary * x`` from 256 KiB), and a row's
        values do not depend on the other rows.  The second product is
        taken in place, which rounds as the fresh product does and spares
        numpy's costly check for a temporary it may reuse.  At infinity
        only a constant is defined.
        """
        table = as_power_table(points, inf_mask)
        out = np.zeros((len(self),) + table.points.shape, dtype=complex)
        column = (-1,) + (1,) * table.points.ndim
        for (j, k), c in zip(self.keys, self.coeffs.T):
            term = c.reshape(column) * table.power(j)
            term *= table.power(k, conjugate=True)
            out += term
        if table.inf_mask.any():
            if any(key != (0, 0) for key in self.keys):
                raise ValueError(f"polynomial {self.name} is not defined at infinity")
            out[:, table.inf_mask] = self.coeffs[:, :1] if self.keys else 0j
        return out

    def conj(self) -> "PolynomialBatch":
        return PolynomialBatch([(k, j) for j, k in self.keys], np.conj(self.coeffs),
                               f"conj({self.name})")

    def __mul__(self, other: "PolynomialBatch") -> "PolynomialBatch":
        """Row-wise products, in :meth:`TestFunction.__mul__`'s key order.

        The products of coefficients round as Python's complex product does,
        from real and imaginary parts (numpy's complex multiply may fuse
        them), and accumulate from ``0j`` in the order of the nested term
        loops.
        """
        sums = {}
        for (j1, k1), a in zip(self.keys, self.coeffs.T):
            for (j2, k2), b in zip(other.keys, other.coeffs.T):
                key = (j1 + j2, k1 + k2)
                re, im = sums.get(key, (0.0, 0.0))
                sums[key] = (re + (a.real * b.real - a.imag * b.imag),
                             im + (a.real * b.imag + a.imag * b.real))
        rows = np.broadcast_shapes((len(self),), (len(other),))[0]
        coeffs = np.empty((rows, len(sums)), dtype=complex)
        for t, (re, im) in enumerate(sums.values()):
            coeffs[:, t].real = re
            coeffs[:, t].imag = im
        return PolynomialBatch(sums, coeffs, f"({self.name})*({other.name})")


ONE = TestFunction.constant(1.0, name="1")

Z = TestFunction.polynomial({(1, 0): 1.0}, name="z")
ZBAR = TestFunction.polynomial({(0, 1): 1.0}, name="zb")
RE = TestFunction.polynomial({(1, 0): 0.5, (0, 1): 0.5}, name="re(z)")
IM = TestFunction.polynomial({(1, 0): -0.5j, (0, 1): 0.5j}, name="im(z)")
ABS2 = TestFunction.polynomial({(1, 1): 1.0}, name="|z|^2")
RE2 = RE * RE
RE4 = RE2 * RE2


def abs_distance(center: complex, name: str | None = None) -> TestFunction:
    """The Lipschitz function z -> |z - center|, undefined at infinity."""
    c = complex(center)
    name = name or f"|z-({c})|"

    def distance(points, inf_mask):
        if inf_mask.any():
            raise ValueError(f"{name} is not defined at infinity")
        d = points - c
        # hypot of the parts rounds as the scalar abs(complex) does; np.abs
        # of a complex array differs from it in the last bit.
        return np.hypot(d.real, d.imag)

    return TestFunction.from_callable(distance, name)


ABS = abs_distance(0.0, "|z|")


# Random polynomials damp the coefficient of z^j conj(z)^k by this to the
# power -(j + k).
_DECAY = 3.0


def _term_keys(max_degree: int) -> list:
    return [(j, k) for j in range(max_degree + 1) for k in range(max_degree + 1 - j)]


def random_trials(rng: np.random.Generator, count: int, degrees) -> tuple:
    """``count`` trials of one random polynomial per entry of ``degrees``,
    as one batch per entry, drawn from the stream exactly as ``count``
    rounds of ``random_polynomial(rng, d)`` for d in ``degrees`` would draw
    them, with one call of ``rng.standard_normal``."""
    keys = [_term_keys(d) for d in degrees]
    edges = np.cumsum([0] + [2 * len(k) for k in keys])
    normals = rng.standard_normal(count * int(edges[-1])).reshape(count, int(edges[-1]))
    batches = []
    for lo, hi, terms in zip(edges, edges[1:], keys):
        parts = normals[:, lo:hi].reshape(count, len(terms), 2)
        scale = np.array([_DECAY ** (-(j + k)) for j, k in terms])
        coeffs = np.empty((count, len(terms)), dtype=complex)
        coeffs.real = parts[..., 0] * scale
        coeffs.imag = parts[..., 1] * scale
        batches.append(PolynomialBatch(terms, coeffs, "rand"))
    return tuple(batches)


def random_polynomials(rng: np.random.Generator, count: int,
                       max_degree: int = 2) -> PolynomialBatch:
    """``count`` random polynomials in (z, conj z) over one term list, with
    geometrically damped coefficients: the batch of ``count`` successive
    :func:`random_polynomial` calls, drawn with one call of
    ``rng.standard_normal``.

    The damping keeps values O(1) on the disk |z| <= 2 so that residual
    tolerances in the operator checks are meaningful.
    """
    return random_trials(rng, count, (max_degree,))[0]


def random_polynomial(rng: np.random.Generator, max_degree: int = 2) -> TestFunction:
    """One random polynomial: the one-row case of :func:`random_polynomials`."""
    return random_polynomials(rng, 1, max_degree)[0]
