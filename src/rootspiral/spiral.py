"""Exact construction of the square-root spiral.

The spiral is the chain of unit-leg right triangles: ray n has length
sqrt(n), and attaching triangle n turns the outer ray by arctan(1/sqrt(n)).
This module computes per-triangle angles, high-accuracy cumulative angles,
the asymptotic angle constant, polar placement of any natural number, and
the classical limit quantities (winding gap -> pi, square-to-square angle
-> 360/pi degrees).  Cumulative angles come from a correctly rounded prefix
table up to 2.2e6 and, beyond it, from memoised sums of fixed chunks of
2^21 increments, so a query at or below an earlier one costs at most one
chunk.

numpy is imported only by the functions that sum angles, so importing this
module (and any command that never sums an angle) does not load it.  The
prefix table starts as the single entry total_angle(1) = 0 and grows in
blocks of 2^16 entries written in place into one preallocated array, so a
build holds the old and new tables plus one block of temporaries.  Streamed
sums split each chunk the way numpy's pairwise summation splits an array,
down to blocks of 2^16 increments, so they hold one block at a time and
equal the sum of the whole chunk as one array bit for bit.  Increments are
computed in place, in one buffer per block.  angles_between sums many
overlapping spans from one shared set of increments.

Angle origin convention: ray sqrt(1) lies on the +X axis and angles
accumulate counter-clockwise, so ``total_angle(1) == 0``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

# Limit of total_angle(k) - 2*sqrt(k).  Documented digits: -2.157782996659
# (verified to 1e-9 by the accelerated estimator in the test suite).
C2 = -2.157782996659446

# Asymptotic tail of the angle sum:  sum_{m>=n} [arctan(1/sqrt(m))
# - 2(sqrt(m+1)-sqrt(m))]  ~  -1/(6 sqrt(n)) + 1/(120 n^{3/2})
# + 1/(840 n^{5/2}), obtained by expanding arctan(1/sqrt(m)) in powers of
# m^{-1/2} and applying Euler-Maclaurin to each power sum.
_TAIL_COEFFS = ((-1.0 / 6.0, -0.5), (1.0 / 120.0, -1.5), (1.0 / 840.0, -2.5))

# total_angle builds a memoized prefix table for n up to this bound and
# memoized sums of _STREAM_CHUNK-term chunks (_chunks) beyond it.
_AUTO_TABLE_LIMIT = 2_200_000
_STREAM_CHUNK = 1 << 21
# entries of the prefix table computed per step of its growth, and the most
# increments a streamed sum holds at once
_TABLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class SpiralPoint:
    """Polar placement of the natural number n on the spiral."""

    n: int
    radius: float
    angle_total: float
    wind: int


def angle_increment(n: int) -> float:
    """Turning angle arctan(1/sqrt(n)) contributed by triangle n, in radians."""
    if n < 1:
        raise ValueError(f"triangle index must be >= 1, got {n}")
    return math.atan(1.0 / math.sqrt(n))


def _increments(lo: int, hi: int) -> np.ndarray:
    """Angle increments arctan(1/sqrt(k)) for k in [lo, hi), as float64.

    Each step writes into the one buffer that arange allocates; the operations,
    and so the values, are those of arctan(1.0 / sqrt(arange(lo, hi))).
    """
    import numpy as np

    out = np.arange(lo, hi, dtype=np.float64)
    np.sqrt(out, out=out)
    np.divide(1.0, out, out=out)
    return np.arctan(out, out=out)


# _prefix[i] holds sum_{k=1}^{i} arctan(1/sqrt(k)), correctly rounded.  Below
# _AUTO_TABLE_LIMIT every increment is >= 2^-11, hence an exact multiple of
# 2^-64: it splits exactly into whole units of 2^-30 and of 2^-64, whose
# running int64 sums (_units) are exact, and one float addition per entry
# rounds the exact prefix once.  It starts as the one entry (0.0,), without
# numpy; each growth preallocates the grown array, copies the old entries and
# fills the rest in _TABLE_BLOCK-entry blocks, carrying _units across them, so
# every entry is the same however the table was grown.  The table is grown
# under _lock and published by rebinding _prefix, so readers index the array
# they fetched without it.
_lock = threading.Lock()
_prefix: Sequence[float] = (0.0,)
_units = (0, 0)
# _chunks[j] holds the float64 sum of the increments for k in
# [1 + j*_STREAM_CHUNK, 1 + (j+1)*_STREAM_CHUNK): the parts that
# _streamed_angle(1, n) adds up.  It only grows, by appends under _lock.
_chunks: list[float] = []


def _prefix_table(n: int) -> Sequence[float]:
    """The prefix table, grown to cover index n (n < _AUTO_TABLE_LIMIT)."""
    global _prefix, _units
    table = _prefix
    if n < len(table):
        return table
    with _lock:
        table = _prefix
        if n < len(table):
            return table
        import numpy as np

        # at least double, so that copying the old entries stays O(1) per entry
        size = min(max(n + 1, 2 * len(table)), _AUTO_TABLE_LIMIT)
        grown = np.empty(size)
        grown[: len(table)] = table
        coarse_sum, fine_sum = _units
        for lo in range(len(table), size, _TABLE_BLOCK):
            hi = min(lo + _TABLE_BLOCK, size)
            fine, coarse = np.modf(np.ldexp(_increments(lo, hi), 30))
            coarse = np.cumsum(coarse.astype(np.int64)) + coarse_sum
            fine = np.cumsum(np.ldexp(fine, 34).astype(np.int64)) + fine_sum
            grown[lo:hi] = np.ldexp(coarse + (fine >> 34), -30)
            grown[lo:hi] += np.ldexp(fine & ((1 << 34) - 1), -64)
            coarse_sum, fine_sum = int(coarse[-1]), int(fine[-1])
        _prefix, _units = grown, (coarse_sum, fine_sum)
        return grown


def _pairwise(lo: int, hi: int, block_sum: Callable[[int, int], float]) -> float:
    """numpy's pairwise sum of the span [lo, hi), from sums of blocks of it.

    numpy sums more than 128 terms as the sum of two pieces, the first of
    n // 2 terms rounded down to a multiple of 8.  This splits the same way
    until a piece has at most _TABLE_BLOCK terms, and takes block_sum(a, b),
    numpy's .sum() of that piece, so the result equals .sum() of the whole
    span bit for bit.
    """
    n = hi - lo
    if n <= _TABLE_BLOCK:
        return block_sum(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise(lo, lo + half, block_sum) + _pairwise(lo + half, hi, block_sum)


def _block_sum(lo: int, hi: int) -> float:
    return float(_increments(lo, hi).sum())


def _increment_sum(lo: int, hi: int) -> float:
    """Pairwise float64 sum of the increments for k in [lo, hi).

    Equal bit for bit to .sum() of _increments(lo, hi), but computed in
    blocks of at most _TABLE_BLOCK increments, so it holds one block at a time.
    """
    return _pairwise(lo, hi, _block_sum)


def _streamed_angle(n1: int, n2: int) -> float:
    """sum_{k=n1}^{n2-1} arctan(1/sqrt(k)) by chunked pairwise summation."""
    parts = []
    for a in range(n1, n2, _STREAM_CHUNK):
        parts.append(_increment_sum(a, min(a + _STREAM_CHUNK, n2)))
    return math.fsum(parts)


def _chunk_sums(count: int) -> list[float]:
    """The first count full-chunk sums of the stream from k = 1, memoised.

    Each sum is computed without the lock, and appended under it only if no
    other thread appended that chunk meanwhile, so streaming never blocks.
    """
    while len(_chunks) < count:
        j = len(_chunks)
        a = 1 + j * _STREAM_CHUNK
        part = _increment_sum(a, a + _STREAM_CHUNK)
        with _lock:
            if len(_chunks) == j:
                _chunks.append(part)
    return _chunks[:count]


def total_angle(n: int) -> float:
    """Cumulative angle of ray sqrt(n): sum_{k=1}^{n-1} arctan(1/sqrt(k)).

    Correctly rounded for n <= 2.2e6, read from an exact prefix table grown
    on demand.  Beyond that it equals _streamed_angle(1, n) bit for bit, with
    absolute error below 1e-10 rad out to n = 1e8 (measured against mpmath):
    the full-chunk sums are memoised, so the first call up to n streams O(n)
    terms and later calls up to n stream only the final partial chunk.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _AUTO_TABLE_LIMIT:
        full = (n - 1) // _STREAM_CHUNK
        return math.fsum([*_chunk_sums(full), _streamed_angle(1 + full * _STREAM_CHUNK, n)])
    return float(_prefix_table(n - 1)[n - 1])


def angle_between(n1: int, n2: int) -> float:
    """Partial angle sum_{k=n1}^{n2-1} arctan(1/sqrt(k)), always streamed.

    This is the direct-summation oracle used by tests and by arm-chain
    detection: it never goes through the asymptotic form, and unlike a
    difference of two table lookups it is free of cancellation error.
    """
    if not 1 <= n1 <= n2:
        raise ValueError(f"need 1 <= n1 <= n2, got {n1}, {n2}")
    return _streamed_angle(n1, n2)


def angles_between(spans: Sequence[tuple[int, int]]) -> list[float]:
    """angle_between(n1, n2) for each span (n1, n2), bit for bit.

    Each span is streamed in the chunks angle_between uses, and the chunks
    at the same offset into their spans are summed from one shared array of
    increments, so overlapping spans, such as the steps of neighbouring
    chains, compute each increment once.  That array covers the union of
    those chunks, and is at most two chunks long (32 MiB); chunks spread
    wider apart are summed block by block, as angle_between sums them.
    """
    for n1, n2 in spans:
        if not 1 <= n1 <= n2:
            raise ValueError(f"need 1 <= n1 <= n2, got {n1}, {n2}")
    parts: list[list[float]] = [[] for _ in spans]
    longest = max((n2 - n1 for n1, n2 in spans), default=0)
    for offset in range(0, longest, _STREAM_CHUNK):
        chunks = [
            (i, n1 + offset, min(n1 + offset + _STREAM_CHUNK, n2))
            for i, (n1, n2) in enumerate(spans)
            if n1 + offset < n2
        ]
        base = min(a for _, a, _ in chunks)
        top = max(b for _, _, b in chunks)
        if top - base > 2 * _STREAM_CHUNK:
            block_sum = _block_sum
        else:
            incs = _increments(base, top)

            def block_sum(a: int, b: int) -> float:
                return float(incs[a - base : b - base].sum())

        for i, a, b in chunks:
            parts[i].append(_pairwise(a, b, block_sum))
    return [math.fsum(p) for p in parts]


def _tail(n: float) -> float:
    return sum(c * n**e for c, e in _TAIL_COEFFS)


def total_angle_fast(n: int) -> float:
    """Asymptotic total angle 2*sqrt(n) + c2 - tail(n).

    Agrees with total_angle to well below 1e-8 rad for n >= 1e4 (validated
    in tests); below that threshold it falls back to direct summation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n < 10_000:
        return total_angle(n)
    return 2.0 * math.sqrt(n) + C2 - _tail(float(n))


def estimate_c2(k: int, accelerate: bool = True) -> float:
    """Estimate the spiral constant from the angle sum truncated at k.

    Raw mode returns total_angle(k) - 2*sqrt(k), which converges from
    above like 1/(6 sqrt(k)).  Accelerated mode adds the Euler-Maclaurin
    estimate of the dropped tail and is accurate to ~1e-10 already for
    k around 1e3.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    raw = total_angle(k) - 2.0 * math.sqrt(k)
    if not accelerate:
        return raw
    return raw + _tail(float(k))


def polar_of(n: int) -> SpiralPoint:
    """Exact polar placement of n: radius sqrt(n), cumulative angle, wind."""
    phi = total_angle(n)
    return SpiralPoint(n=n, radius=math.sqrt(n), angle_total=phi, wind=int(phi // TWO_PI))


def winding_gap(n: int) -> float:
    """Radial distance between wind w(n) and the next wind at the same bearing.

    Finds, on the piecewise-linear extension of the strictly monotone
    total_angle, the fractional index m with total_angle(m) =
    total_angle(n) + 2*pi, and returns sqrt(m) - sqrt(n).  Tends to pi
    (from above) as n grows.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    import numpy as np

    # One extra wind spans ~2*pi*sqrt(n) + pi^2 indices; pad the range.
    span = int(math.ceil(TWO_PI * math.sqrt(n))) + 16
    incs = _increments(n, n + span)
    cum = np.concatenate([[0.0], np.cumsum(incs)])
    i = int(np.searchsorted(cum, TWO_PI)) - 1  # cum[i] < 2*pi <= cum[i + 1]
    m = n + (i + (TWO_PI - float(cum[i])) / float(incs[i]))
    return math.sqrt(m) - math.sqrt(n)


def square_arm_angle(m: int) -> float:
    """Angle in degrees from square m^2 to square (m+1)^2, full turns removed.

    Approaches 360/pi ~ 114.5916 deg as m grows (the three-arm geometry of
    the square numbers: three successive squares nearly trisect the circle,
    leaving 360 - 3*(360/pi) ~ 16.23 deg of backward drift per wind).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return math.degrees(angle_between(m * m, (m + 1) * (m + 1))) % 360.0


def delta_r(n: int) -> float:
    """Radial growth sqrt(n+1) - sqrt(n) of one triangle step."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(n + 1) - math.sqrt(n)


def appendix_angle_deg(n: int) -> float:
    """Bearing of ray sqrt(n) measured as 360 - (total angle mod 360) degrees.

    This is the convention of the published polar-coordinate table for arm
    B3 (validated against its sqrt(17) row).
    """
    return 360.0 - math.degrees(total_angle(n)) % 360.0
