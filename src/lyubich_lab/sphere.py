"""Points on the Riemann sphere and the chordal metric.

Finite points are ordinary complex numbers; the point at infinity is a
tagged alternative.  All geometric comparisons in the package use the
chordal metric, and :func:`chordal_pairs` is its one rule:

    d(z, w) = 2|z - w| / (sqrt(1 + |z|^2) sqrt(1 + |w|^2)),
    d(z, inf) = 2 / sqrt(1 + |z|^2),

taken as written, with each norm halved, which keeps nearby points at
any modulus to a few ulps.  Where the norms' product nears overflow
(moduli beyond about 1e153) it quarters the points and divides by each
half norm in turn: the answer stays finite, past |z| = DBL_MAX too.
Callers that hold a point array's half norms (:func:`half_norm`) pass
them to the same rule, so a pair's distance never depends on the other
pairs of a call.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Below this product of the half norms sqrt(1 + |z|^2) / 2 and
# sqrt(1 + |w|^2) / 2, neither the norms' product nor 2|z - w| overflows;
# above it, at moduli beyond about 1e153, each norm divides in turn.
_OVERFLOW = np.finfo(float).max / 16

# Rows of a CSV export formatted per write, so that the writer never holds
# the strings of the whole file.
_CSV_CHUNK = 1 << 15


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity.

    Exactly one variant is active.  Finite values are always finite
    floating complex numbers; NaN and overflowed values are rejected.
    """

    value: complex
    infinite: bool = False

    def __post_init__(self):
        if self.infinite:
            object.__setattr__(self, "value", 0j)
        else:
            v = complex(self.value)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("finite sphere point must have finite coordinates")
            object.__setattr__(self, "value", v)

    def sort_key(self) -> tuple:
        """The scalar form of :func:`atom_order`."""
        return (1 if self.infinite else 0, self.value.real, self.value.imag)

    def __repr__(self) -> str:
        if self.infinite:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.value!r})"


INFINITY = SpherePoint(0j, True)


def as_point(x) -> SpherePoint:
    """Coerce a complex number or SpherePoint to a SpherePoint."""
    if isinstance(x, SpherePoint):
        return x
    z = complex(x)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return INFINITY
    return SpherePoint(z)


def _same_bits(p: SpherePoint, q: SpherePoint) -> bool:
    """Whether two points are one point to the bit (0.0 and -0.0 differ)."""
    return (p.infinite == q.infinite
            and np.complex128(p.value).tobytes() == np.complex128(q.value).tobytes())


def point_json(p: SpherePoint):
    """The JSON form of a point: ``"inf"``, or its parts ``[re, im]``."""
    return "inf" if p.infinite else [p.value.real, p.value.imag]


def sphere_points(points: np.ndarray, inf_mask: np.ndarray) -> list[SpherePoint]:
    """The points of a complex array with its companion infinity mask."""
    return [INFINITY if inf else SpherePoint(complex(z))
            for z, inf in zip(points, inf_mask)]


def write_csv(path, header: list[str], tables) -> None:
    """Write a header and a row per point of each table ``(lead, points,
    inf_mask, tail)``, as ``csv.writer`` would: the shortest reprs of the
    point's parts (``inf, inf`` at infinity) between the integer columns
    ``lead`` and ``tail``, each an array or one int for every row."""
    def ints(columns, part):
        return [itertools.repeat(str(c)) if np.ndim(c) == 0
                else map(str, c[part].tolist()) for c in columns]

    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for lead, points, inf_mask, tail in tables:
            for start in range(0, len(points), _CSV_CHUNK):
                part = slice(start, start + _CSV_CHUNK)
                re_im = [map(repr, np.where(inf_mask[part], np.inf, x).tolist())
                         for x in (points[part].real, points[part].imag)]
                cells = ints(lead, part) + re_im + ints(tail, part)
                handle.writelines(row + "\r\n" for row in map(",".join, zip(*cells)))


def atom_order(points: np.ndarray, inf_mask: np.ndarray) -> np.ndarray:
    """The order of atoms along the last axis, the one order of fibers
    and Julia samples: finite points by (real, imag), then infinity, ties
    kept in place.  A NaN real part sorts after infinity.

    One stable sort of a complex key, which numpy orders by (real, imag):
    the points with the real part +inf on infinite entries.  numpy puts
    every value with a NaN part after all others, so a NaN imaginary part
    under a non-NaN real part enters the key as +inf, and sorts last among
    its real part as a NaN does in a sort by real part, then imaginary.

    Rows of two without a NaN real part, as the fiber engine sorts for
    a map of degree 2, compare their two keys instead."""
    real = np.where(inf_mask, np.inf, points.real)
    imag = points.imag
    nan = np.isnan(imag)
    if nan.any():
        imag = np.where(nan & ~np.isnan(real), np.inf, imag)
    if points.shape[-1] == 2 and not np.isnan(real).any():
        return _order_of_two(real, imag)
    key = np.empty(points.shape, dtype=complex)
    key.real = real
    key.imag = imag
    return np.argsort(key, axis=-1, kind="stable")


def _order_of_two(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """:func:`atom_order` of rows of two keys (..., 2) with no NaN part:
    the second first where its key is the smaller."""
    swap = (real[..., 1] < real[..., 0]) | (
        (real[..., 1] == real[..., 0]) & (imag[..., 1] < imag[..., 0]))
    order = np.empty(real.shape, dtype=np.intp)
    order[..., 0] = swap
    order[..., 1] = ~swap
    return order


def half_norm(x):
    """sqrt(1 + |x|^2) / 2 from x / 2, finite whenever x's parts are; a
    single point's in scalars, which can round differently in the last
    bit from numpy's abs and hypot of an array."""
    if np.ndim(x) == 0:
        return np.float64(math.hypot(0.5, abs(0.5 * x)))
    return np.hypot(0.5, np.abs(0.5 * x))


def chordal(p, q) -> float:
    """Chordal distance between two points of the sphere (range [0, 2])."""
    p, q = as_point(p), as_point(q)
    return float(chordal_pairs(p.value, p.infinite, q.value, q.infinite))


def chordal_pairs(z, z_inf, w, w_inf):
    """Chordal distances between the points ``z`` and ``w``, broadcast
    against each other: 2|z - w| / (sqrt(1 + |z|^2) sqrt(1 + |w|^2)).

    Each point is a complex value with an infinity flag; a flagged entry
    is infinity, whatever its value.  A result that rounds above the
    sphere's diameter 2 reads 2.  A pair's distance does not depend on
    the other pairs of the call.
    """
    return _chordal(z, z_inf, half_norm(z), w, w_inf, half_norm(w))


def _chordal(z, z_inf, hz, w, w_inf, hw):
    """:func:`chordal_pairs` from the half norms ``hz`` and ``hw`` of ``z``
    and ``w``, for callers that reuse a point array's norms."""
    if hz.max(initial=0.5) <= _OVERFLOW / hw.max(initial=0.5):
        out = np.abs(z - w)
        out /= 2.0 * hz * hw
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            halves = hz * hw
            out = np.where(halves > _OVERFLOW, 2.0 * (np.abs(0.25 * z - 0.25 * w) / hz / hw),
                           np.abs(z - w) / (2.0 * halves))
    out = np.minimum(out, 2.0)
    if np.logical_or(z_inf, w_inf).any():
        out = np.where(z_inf, np.where(w_inf, 0.0, 1.0 / hw), np.where(w_inf, 1.0 / hz, out))
    return out
