"""Points on the Riemann sphere and the chordal metric.

Finite points are ordinary complex numbers; the point at infinity is a
tagged alternative.  All geometric comparisons in the package use the
chordal metric, which treats infinity like any other point and never
overflows for large moduli.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Moduli beyond this are metrically indistinguishable from infinity in
# double precision (chordal distance to infinity below ~1e-153).
_HUGE = 1e153

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
    """The order of atoms along the last axis, the one order of fibers,
    tree levels and Julia samples: finite points by (real, imag), then
    infinity, ties kept in place.  A NaN real part sorts after infinity.

    One stable sort of a complex key, which numpy orders by (real, imag):
    the points with the real part +inf on infinite entries.  numpy puts
    every value with a NaN part after all others, so a NaN imaginary part
    under a non-NaN real part enters the key as +inf, and sorts last among
    its real part as a NaN does in a sort by real part, then imaginary.

    Rows of two without a NaN real part, as the fiber engine sorts for
    a map of degree 2, compare their two keys instead."""
    real = np.where(inf_mask, np.inf, points.real)
    imag = np.where(np.isnan(points.imag) & ~np.isnan(real), np.inf, points.imag)
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


def _chordal_finite(z: complex, w: complex) -> float:
    az, aw = abs(z), abs(w)
    if az > _HUGE and aw > _HUGE:
        # Both effectively at infinity; invert (the metric is invariant
        # under z -> 1/z) to keep the arithmetic finite.
        z, w = 1.0 / z, 1.0 / w
        az, aw = abs(z), abs(w)
    elif az > _HUGE:
        return 2.0 / math.hypot(1.0, aw)
    elif aw > _HUGE:
        return 2.0 / math.hypot(1.0, az)
    if az > 1.0 and aw > 1.0:
        z, w = 1.0 / z, 1.0 / w
        az, aw = abs(z), abs(w)
    return 2.0 * abs(z - w) / (math.hypot(1.0, az) * math.hypot(1.0, aw))


def chordal(p, q) -> float:
    """Chordal distance between two points of the sphere (range [0, 2])."""
    p = as_point(p)
    q = as_point(q)
    if p.infinite and q.infinite:
        return 0.0
    if p.infinite:
        return 2.0 / math.hypot(1.0, abs(q.value))
    if q.infinite:
        return 2.0 / math.hypot(1.0, abs(p.value))
    return _chordal_finite(p.value, q.value)


def chordal_array(points: np.ndarray, inf_mask: np.ndarray, q) -> np.ndarray:
    """Chordal distances from each entry of a point array to a single point.

    `points` is a complex array with companion boolean `inf_mask`; entries
    flagged infinite have their complex value ignored.
    """
    q = as_point(q)
    points = np.asarray(points, dtype=complex)
    inf_mask = np.asarray(inf_mask, dtype=bool)
    norm = np.hypot(1.0, np.abs(points))
    if q.infinite:
        out = 2.0 / norm
    else:
        qn = math.hypot(1.0, abs(q.value))
        out = 2.0 * np.abs(points - q.value) / (norm * qn)
        out[inf_mask] = 2.0 / qn
        return out
    out = np.asarray(out)
    out[inf_mask] = 0.0
    return out


def chordal_pairs(z: np.ndarray, z_inf: np.ndarray,
                  w: np.ndarray, w_inf: np.ndarray) -> np.ndarray:
    """Chordal distances between matching entries of two point arrays.

    Pairs outside the unit disc are compared through z -> 1/z, as
    :func:`chordal` does, so nearby large points keep their precision.
    """
    # hypot of the parts rounds as the scalar abs(complex) does; np.abs
    # of a complex array differs from it in the last bit.
    def mod(x):
        return np.hypot(x.real, x.imag)

    flip = (z_inf | (mod(z) > 1.0)) & (w_inf | (mod(w) > 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(flip, np.where(z_inf, 0j, 1.0 / z), z)
        w = np.where(flip, np.where(w_inf, 0j, 1.0 / w), w)
    hz, hw = np.hypot(1.0, mod(z)), np.hypot(1.0, mod(w))
    out = 2.0 * mod(z - w) / (hz * hw)
    out = np.where(z_inf & ~flip, 2.0 / hw, out)
    return np.where(w_inf & ~flip, 2.0 / hz, out)
