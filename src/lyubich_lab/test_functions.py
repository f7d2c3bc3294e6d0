"""Closed-form evaluable functions on the sphere.

These play the role of the continuous / square-integrable functions fed to
quadrature and to the operator model: bivariate polynomials in (z, conj z),
named analytic forms wrapped as callables, and pointwise tables bound to a
specific atom set.  Polynomials compose exactly under products and
conjugation, which keeps the operator identities free of interpolation
error.
"""

import numpy as np

from .errors import IncompatibleTable
from .rational_map import evaluate_array
from .sphere import as_point


class TestFunction:
    """An evaluable function on the sphere.

    Construct through the classmethods: :meth:`polynomial` for a
    coefficient table ``{(j, k): c}`` meaning ``sum c * z**j * conj(z)**k``,
    :meth:`from_callable` for array closures, :meth:`from_table` for values
    bound to a fixed atom set.  :meth:`evaluate` is the one evaluation
    path; calling a function on a point evaluates it on a one-point array.
    """

    __slots__ = ("kind", "name", "_coeffs", "_fn", "_points", "_inf_mask", "_values")

    def __init__(self, kind, name, coeffs=None, fn=None,
                 points=None, inf_mask=None, values=None):
        self.kind = kind
        self.name = name
        self._coeffs = coeffs
        self._fn = fn
        self._points = points
        self._inf_mask = inf_mask
        self._values = values

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
        points = np.asarray(points, dtype=complex)
        inf_mask = np.asarray(inf_mask, dtype=bool)
        values = np.asarray(values, dtype=complex)
        return cls("table", name, points=points, inf_mask=inf_mask, values=values)

    # ------------------------------------------------------------------
    # evaluation

    def __call__(self, z) -> complex:
        p = as_point(z)
        return complex(self.evaluate(np.array([p.value]), np.array([p.infinite]))[0])

    def evaluate(self, points, inf_mask=None) -> np.ndarray:
        """The values on a complex array with its infinity mask (no infinite
        points when omitted).  A table evaluates only at its own atoms,
        matched exactly, and raises IncompatibleTable at any other point."""
        points = np.asarray(points, dtype=complex)
        if inf_mask is None:
            inf_mask = np.zeros(points.shape, dtype=bool)
        inf_mask = np.asarray(inf_mask, dtype=bool)
        if self.kind == "poly":
            out = np.zeros(points.shape, dtype=complex)
            zbar = np.conj(points)
            for (j, k), c in self._coeffs.items():
                out += c * points**j * zbar**k
            if inf_mask.any():
                out[inf_mask] = self._poly_at_infinity()
            return out
        if self.kind == "callable":
            return np.asarray(self._fn(points, inf_mask), dtype=complex)
        # table: each point must be one of the atoms, matched exactly; the
        # first of equal atoms wins.  Infinite points are keyed inf + 0j,
        # and a NaN sentinel, which sorts last, keeps every search in range.
        # The table's own atom array, the common case, needs no search.
        if (points.shape == self._points.shape and np.array_equal(inf_mask, self._inf_mask)
                and np.array_equal(points, self._points)):
            return self._values.copy()
        atoms = np.append(np.where(self._inf_mask, np.inf, self._points), np.nan)
        query = np.where(inf_mask, np.inf, points).ravel()
        order = np.argsort(atoms, kind="stable")
        hits = order[np.searchsorted(atoms[order], query)]
        missing = np.flatnonzero(atoms[hits] != query)
        if missing.size:
            z = complex(query[missing[0]])
            z = "inf" if np.isinf(z) else repr(z)
            raise IncompatibleTable(f"point {z} is not an atom of table {self.name}")
        return self._values.ravel()[hits].reshape(points.shape)

    def _poly_at_infinity(self) -> complex:
        nonconst = [jk for jk in self._coeffs if jk != (0, 0)]
        if nonconst:
            raise ValueError(f"polynomial {self.name} is not defined at infinity")
        return self._coeffs.get((0, 0), 0j)

    # ------------------------------------------------------------------
    # algebra

    def conj(self) -> "TestFunction":
        if self.kind == "poly":
            flipped = {(k, j): c.conjugate() for (j, k), c in self._coeffs.items()}
            return TestFunction.polynomial(flipped, name=f"conj({self.name})")
        if self.kind == "callable":
            return TestFunction.from_callable(
                lambda p, i: np.conj(self.evaluate(p, i)), f"conj({self.name})")
        return TestFunction.from_table(
            self._points, self._inf_mask, np.conj(self._values), f"conj({self.name})")

    def __mul__(self, other) -> "TestFunction":
        if np.isscalar(other) and not isinstance(other, TestFunction):
            return self._scale(complex(other))
        if not isinstance(other, TestFunction):
            return NotImplemented
        if self.kind == "poly" and other.kind == "poly":
            prod = {}
            for (j1, k1), c1 in self._coeffs.items():
                for (j2, k2), c2 in other._coeffs.items():
                    key = (j1 + j2, k1 + k2)
                    prod[key] = prod.get(key, 0j) + c1 * c2
            return TestFunction.polynomial(prod, name=f"({self.name})*({other.name})")
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
        if self.kind == "callable":
            return TestFunction.from_callable(
                lambda p, i: c * self.evaluate(p, i), f"{c}*({self.name})")
        return TestFunction.from_table(
            self._points, self._inf_mask, c * self._values, f"{c}*({self.name})")

    def compose_with(self, rational_map) -> "TestFunction":
        """The function z -> f(R(z)); composition is exact, no interpolation."""
        return TestFunction.from_callable(
            lambda p, i: self.evaluate(*evaluate_array(rational_map, p, i)),
            f"({self.name}) o R")

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


def random_polynomial(rng: np.random.Generator, max_degree: int = 2,
                      decay: float = 3.0, name: str = "rand") -> TestFunction:
    """A random polynomial in (z, conj z) with geometrically damped coefficients.

    The damping keeps values O(1) on the disk |z| <= 2 so that residual
    tolerances in the operator checks are meaningful.
    """
    coeffs = {}
    for j in range(max_degree + 1):
        for k in range(max_degree + 1 - j):
            c = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[(j, k)] = c * decay ** (-(j + k))
    return TestFunction.polynomial(coeffs, name=name)
