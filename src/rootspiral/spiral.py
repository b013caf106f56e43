"""Exact construction of the square-root spiral.

The spiral is the chain of unit-leg right triangles: ray n has length
sqrt(n), and attaching triangle n turns the outer ray by arctan(1/sqrt(n)).
This module computes per-triangle angles, cumulative angles, the asymptotic
angle constant, polar placement of any natural number, and the classical
limit quantities (winding gap -> pi, square-to-square angle -> 360/pi
degrees).

A cumulative angle costs O(1).  Up to n = 4096 (_N0) it is read from a
prefix table of the math.atan increments, built at import in pure Python:
every increment below _N0 is a whole number of 2^-64 units, so the table
holds exact integer running sums and each read divides once, correctly
rounded.  Above _N0 it is the Euler-Maclaurin expansion

    sum_{k<n} arctan(1/sqrt(k)) = 2 sqrt(n) + C + sum_{j=1}^{8} a_j n^{-(2j-1)/2}

(Davis, "Spirals: From Theodorus to Chaos", 1993; Gronau, "The Spiral of
Theodorus", Amer. Math. Monthly 2004), whose truncation error there is
below 1e-34.

A span sum_{n1 <= k < n2} arctan(1/sqrt(k)) has two forms.  _span
differences the closed form in O(1), or reads a span inside the table from
the table; above _N0 it writes 2 sqrt(n2) - 2 sqrt(n1) as
2 (n2 - n1) / (sqrt(n1) + sqrt(n2)), so it does not cancel.  It ranks chain candidates, locates the next wind and gives
square_arm_angle.  angle_between sums the span directly instead: the part
below _N0 is the difference of two table entries, the correctly rounded
sum of its math.atan increments, in O(1); the part from _N0 up is streamed
in blocks of 2^16 increments (_BLOCK) summed with numpy, and the pieces
are merged with math.fsum, so a sum holds one block of increments
(512 KiB) at a time.  A block's k are a slice of one read-only index block
0 .. _BLOCK - 1 (another 512 KiB, built on first use and kept) plus the
block's start; a span from _N0 up that fits in one block is that block's
sum.  It is the direct-summation oracle behind reported drifts and
estimate_c2.  numpy is imported only by the first _increments call, so
only a span reaching past _N0 loads it.

Angle origin convention: ray sqrt(1) lies on the +X axis and angles
accumulate counter-clockwise, so ``total_angle(1) == 0``.
"""

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

# Limit of total_angle(k) - 2*sqrt(k), rounded to float64.  C2 + _C2_LO is
# C = -2.15778299665944622092914278683 (mpmath: a direct sum to 2e4 plus the
# series) to ~32 digits.  Documented digits: -2.157782996659.  Summing the
# arctan series of each term k >= 2 power by power gives, independently,
# C = pi/4 + zeta(1/2) - 1 + sum_{j>=1} (-1)^j (zeta(j + 1/2) - 1)/(2j + 1).
C2 = -2.157782996659446
_C2_LO = -4.7902434293704376e-17

# a_8, ..., a_1 of the expansion, for Horner's rule in 1/n: Euler-Maclaurin
# applied to each power sum of arctan(k^-1/2) = sum_m (-1)^m k^-(m+1/2)/(2m+1).
_SERIES = (
    1067 / 5013504, -29 / 199680, -521 / 2196480, 1 / 4224, 5 / 8064, -1 / 840, -1 / 120, 1 / 6
)

# total_angle reads the prefix table up to this n and evaluates the expansion above it
_N0 = 4096
# terms of a streamed sum taken at once
_BLOCK = 1 << 16
# numpy and the index block 0 .. _BLOCK - 1, set by the first _increments call
_np = None
_INDEX = None


class SpiralPoint(NamedTuple):
    """Polar placement of a natural number on the spiral."""

    radius: float
    angle_total: float
    wind: int


def angle_increment(n: int) -> float:
    """Turning angle arctan(1/sqrt(n)) contributed by triangle n, in radians."""
    if n < 1:
        raise ValueError(f"triangle index must be >= 1, got {n}")
    return math.atan(1.0 / math.sqrt(n))


def _increments(lo: int, hi: int) -> "np.ndarray":
    """Angle increments arctan(1/sqrt(k)) for k in [lo, hi), as float64; needs hi - lo <= _BLOCK.

    k is a slice of the cached read-only index block plus float(lo), exact
    below 2^53, so k holds the values of arange(lo, hi).  Each step then
    writes into the one buffer that the addition allocates; the operations,
    and so the values, are those of arctan(1.0 / sqrt(arange(lo, hi))).
    """
    global _np, _INDEX
    if _INDEX is None:
        import numpy

        _INDEX = numpy.arange(_BLOCK, dtype=numpy.float64)
        _INDEX.flags.writeable = False
        _np = numpy
    np = _np
    out = np.add(_INDEX[: hi - lo], float(lo))
    np.sqrt(out, out=out)
    np.divide(1.0, out, out=out)
    return np.arctan(out, out=out)


def _block_sum(lo: int, hi: int) -> float:
    """Sum of _increments(lo, hi) by np.add.reduce, the pairwise sum of ndarray.sum."""
    block = _increments(lo, hi)  # sets _np on first use
    return float(_np.add.reduce(block))


def _prefix_units() -> tuple[int, ...]:
    """sum_{k<n} arctan(1/sqrt(k)) for n = 1 .. _N0, in exact units of 2^-64.

    Every math.atan increment for k < _N0 is >= 2^-7, hence a whole multiple
    of 2^-64: the running sums of those multiples are exact integers, and the
    difference of two of them is an exact span, rounded once on division.
    """
    units, sums = 0, [0]
    for k in range(1, _N0):
        units += int(math.ldexp(angle_increment(k), 64))
        sums.append(units)
    return tuple(sums)


_UNITS = _prefix_units()


def _table_span(n1: int, n2: int) -> float:
    """sum_{k=n1}^{n2-1} of the math.atan increments, correctly rounded; needs n1 <= n2 <= _N0."""
    return (_UNITS[n2 - 1] - _UNITS[n1 - 1]) / 2**64


def _series(n: int) -> float:
    """The expansion's tail sum_j a_j n^{-(2j-1)/2} = total_angle(n) - 2 sqrt(n) - C."""
    x = 1.0 / n
    t = 0.0
    for a in _SERIES:
        t = t * x + a
    return t / math.sqrt(n)


def total_angle(n: int) -> float:
    """Cumulative angle of ray sqrt(n): sum_{k=1}^{n-1} arctan(1/sqrt(k)).

    Up to n = 4096 it is read from the prefix table: the correctly rounded
    sum of the math.atan increments, divided out of its exact units.
    Above, it is 2 sqrt(n) + C + the eight-term series.  The rounding error
    of sqrt(n) is recovered with Dekker's exact product, and 2 sqrt(n) + C
    is carried as a two-sum, so for n <= 2^53 the result is within
    0.5 + 1e-4 ulp of the true sum (measured against 45-digit mpmath; the
    excess is below 0.3/n ulp up to n = 1e12): correctly rounded unless the
    sum lies that close to a rounding midpoint.  Above 2^53, where floats
    no longer hold every integer, it raises OverflowError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= _N0:
        return _UNITS[n - 1] / 2**64
    if n > 1 << 53:
        raise OverflowError(f"total_angle is exact only up to 2^53, got {n}")
    s = math.sqrt(n)
    # s*s == sq + err exactly: 2^27 + 1 splits s into two 26-bit halves
    c = 134217729.0 * s
    s_hi = c - (c - s)
    s_lo = s - s_hi
    sq = s * s
    err = ((s_hi * s_hi - sq) + 2.0 * s_hi * s_lo) + s_lo * s_lo
    # 2 sqrt(n) = 2s + (n - s*s)/s to relative 2^-106; n - sq is exact
    hi = 2.0 * s + C2
    lo = C2 - (hi - 2.0 * s)  # hi + lo == 2s + C2 exactly
    return hi + (lo + (_C2_LO + (((n - sq) - err) / s + _series(n))))


def _span(n1: int, n2: int) -> float:
    """sum_{k=n1}^{n2-1} arctan(1/sqrt(k)) from the closed form, in O(1).

    Inside the prefix table it is the table's exact span.  For n1 <= _N0 <
    n2 it is total_angle(n2) - total_angle(n1), within 4e-14 of the true sum
    for the one-wind spans that chains take.  Above,
    2 sqrt(n2) - 2 sqrt(n1) is written as 2 (n2 - n1) / (sqrt(n1) + sqrt(n2))
    and the series tails are differenced, so nothing cancels: within 2 ulp of
    the true sum (both measured against 40-digit mpmath).
    """
    if n1 < 1:
        raise ValueError(f"n1 must be >= 1, got {n1}")
    if n2 <= _N0:
        return _table_span(n1, n2)
    if n1 <= _N0:
        return total_angle(n2) - total_angle(n1)
    s1, s2 = math.sqrt(n1), math.sqrt(n2)
    return 2.0 * (n2 - n1) / (s1 + s2) + (_series(n2) - _series(n1))


def angle_between(n1: int, n2: int) -> float:
    """Partial angle sum_{k=n1}^{n2-1} arctan(1/sqrt(k)), summed directly.

    The direct-summation oracle behind reported drifts, estimate_c2 and the
    tests: it never goes through the closed form.  The terms below _N0 come
    from the prefix table as the correctly rounded sum of their math.atan
    increments, so a span inside the table costs O(1) and needs no numpy.
    The terms from _N0 up are cut into blocks of 2^16 starting at
    max(n1, _N0); each block is summed with numpy, and the head and the
    block sums are merged with math.fsum.  A span from _N0 up of at most
    one block is returned as its block sum, which is what math.fsum of a
    zero head and that sum gives.
    """
    if not 1 <= n1 <= n2:
        raise ValueError(f"need 1 <= n1 <= n2, got {n1}, {n2}")
    if n1 >= _N0 and n2 - n1 <= _BLOCK:
        return _block_sum(n1, n2)
    head = _table_span(n1, min(n2, _N0)) if n1 < _N0 else 0.0
    tail = (_block_sum(a, min(a + _BLOCK, n2)) for a in range(max(n1, _N0), n2, _BLOCK))
    return math.fsum([head, *tail])


def estimate_c2(k: int, accelerate: bool = True) -> float:
    """Estimate the spiral constant from the angle sum truncated at k.

    The sum is angle_between(1, k), a direct sum that never reads the closed
    form, so the estimate checks C2 independently.  Up to k = _N0 (4096) it
    is the exact prefix table, in O(1); above, the terms from _N0 up are
    streamed.  Raw mode returns it minus 2*sqrt(k), which converges from
    above like 1/(6 sqrt(k)).  Accelerated mode also subtracts the
    expansion's tail and is accurate to ~1e-10 already for k around 1e3; at
    k = 4096 it is within 4e-15 of C (40-digit mpmath).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    raw = angle_between(1, k) - 2.0 * math.sqrt(k)
    if not accelerate:
        return raw
    return raw - _series(k)


def polar_of(n: int) -> SpiralPoint:
    """Exact polar placement of n <= 2^53: radius sqrt(n), cumulative angle, wind."""
    phi = total_angle(n)
    return SpiralPoint(radius=math.sqrt(n), angle_total=phi, wind=int(phi // TWO_PI))


def winding_gap(n: int) -> float:
    """Radial distance between wind w(n) and the next wind at the same bearing.

    Finds, on the piecewise-linear extension of the strictly monotone
    total_angle, the fractional index m with total_angle(m) =
    total_angle(n) + 2*pi, and returns sqrt(m) - sqrt(n).  The whole step k
    with _span(n, k) < 2*pi <= _span(n, k + 1) is found by bisection, and
    the gap is computed as d / (sqrt(m) + sqrt(n)), d = m - n, which does not
    cancel.  Tends to pi (from above) as n grows.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    # One extra wind spans ~2*pi*sqrt(n) + pi^2 indices; pad the range.
    lo, hi = n, n + int(math.ceil(TWO_PI * math.sqrt(n))) + 16
    while hi - lo > 1:  # _span(n, lo) < 2*pi <= _span(n, hi)
        mid = (lo + hi) // 2
        if _span(n, mid) < TWO_PI:
            lo = mid
        else:
            hi = mid
    d = (lo - n) + (TWO_PI - _span(n, lo)) / angle_increment(lo)
    return d / (math.sqrt(n + d) + math.sqrt(n))


def square_arm_angle(m: int) -> float:
    """Angle in degrees from square m^2 to square (m+1)^2, full turns removed.

    Approaches 360/pi ~ 114.5916 deg as m grows (the three-arm geometry of
    the square numbers: three successive squares nearly trisect the circle,
    leaving 360 - 3*(360/pi) ~ 16.23 deg of backward drift per wind).  The
    span of 2m + 1 terms is taken from _span in O(1), so no angles are
    streamed: up to m = 63 it is the exact prefix-table span, at m = 64
    within 4e-14 and from m = 65 on within 2 ulp of the true sum.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return math.degrees(_span(m * m, (m + 1) * (m + 1))) % 360.0


def appendix_angle_deg(n: int) -> float:
    """Bearing of ray sqrt(n) measured as 360 - (total angle mod 360) degrees.

    This is the convention of the published polar-coordinate table for arm
    B3 (validated against its sqrt(17) row).
    """
    return 360.0 - math.degrees(total_angle(n)) % 360.0
