"""Modular periodicity of quadratic sequences.

Because f(t+k) - f(t) = k*(2at + ak + b), the residue stream f(t) mod k is
periodic with period dividing k for every modulus k.  Number endings are
the k = 10 case; digit sums inherit their structure from the values mod 9.
Every cycle and profile starts at the first arm term, x = 1, the indexing
of the printed tables.

Note the period-divides-k fact is stronger than the pigeonhole bound that
is sometimes quoted for such recurrences (which only gives k^2): the
coprime-to-30 pattern of a sequence, for instance, recurs with period
dividing 30, never up to 900.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .quad import QuadPoly


@dataclass(frozen=True)
class ResidueCycle:
    """Residues of f(1), f(2), ... mod k over one minimal period."""

    modulus: int
    period: int
    cycle: tuple[int, ...]

    def canonical(self) -> tuple[tuple[int, ...], int]:
        """Lexicographically smallest rotation and the phase of term 1."""
        rotations = [tuple(self.cycle[i:] + self.cycle[:i]) for i in range(self.period)]
        best = min(rotations)
        phase = rotations.index(best)
        return best, phase

    def same_up_to_phase(self, other: tuple[int, ...]) -> bool:
        if len(other) != self.period:
            return False
        doubled = self.cycle + self.cycle
        return any(doubled[i : i + self.period] == tuple(other) for i in range(self.period))


def residue_cycle(p: QuadPoly, k: int) -> ResidueCycle:
    """Minimal-period residue cycle of f mod k starting at index 1.

    The period is the least d with f(t+d) = f(t) (mod k) for all t, found
    by direct search over the divisors of k (d = k always works).
    """
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    for d in sorted(i for i in range(1, k + 1) if k % i == 0):
        # f(t+d) - f(t) = 2ad*t + ad^2 + bd vanishes mod k for all t iff
        # both coefficients do.
        if (2 * p.a * d) % k == 0 and (p.a * d * d + p.b * d) % k == 0:
            period = d
            break
    else:  # pragma: no cover - d = k always satisfies the congruence
        period = k
    cycle = tuple(p(t) % k for t in range(1, period + 1))
    return ResidueCycle(modulus=k, period=period, cycle=cycle)


def ending_alphabet(p: QuadPoly) -> set[int]:
    """Set of last digits occurring in the value sequence."""
    return set(residue_cycle(p, 10).cycle)


def digit_sum(n: int) -> int:
    """Base-10 digit sum."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(int(d) for d in str(n))


_CYCLE_PATTERNS = ((3, 3, 2, 1), (1, 2, 3, 3))


@dataclass(frozen=True)
class DiffPattern:
    """Detected structure of consecutive gaps in the ordered digit sums."""

    kind: str  # "constant" | "cycle" | "unrecognized"
    step: int | None = None
    cycle: tuple[int, ...] | None = None


def _detect_pattern(diffs: tuple[int, ...]) -> DiffPattern:
    if len(diffs) >= 2 and len(set(diffs)) == 1:
        return DiffPattern("constant", step=diffs[0])
    # A 25-term window can expose as few as 7 distinct digit sums (6 gaps),
    # one and a half cycles; require at least that much before declaring a
    # 4-cycle, and demand every observed gap fit one rotation.
    if len(diffs) >= 6:
        for canon in _CYCLE_PATTERNS:
            for r in range(4):
                rot = canon[r:] + canon[:r]
                if all(d == rot[i % 4] for i, d in enumerate(diffs)):
                    return DiffPattern("cycle", cycle=canon)
    return DiffPattern("unrecognized")


@dataclass(frozen=True)
class DigitSumProfile:
    """Digit sums of the first terms, their ordered distinct values, pattern."""

    sd_values: tuple[int, ...]
    ordered_distinct: tuple[int, ...]
    diff_pattern: DiffPattern


def sd_profile(p: QuadPoly, n_terms: int = 25) -> DigitSumProfile:
    """Digit-sum profile of f(1 .. n_terms).

    The ordered distinct digit sums advance either by a constant step (3 or
    9) or by a repeating 4-cycle, (3,3,2,1) for d2 = 20 families and
    (1,2,3,3) for d2 = 22 families; anything else is reported as
    unrecognized (a valid outcome, e.g. when the window skips a digit sum).
    """
    if n_terms < 5:
        raise ValueError(f"need at least 5 terms, got {n_terms}")
    sds = tuple(digit_sum(p(t)) for t in range(1, n_terms + 1))
    ordered = tuple(sorted(set(sds)))
    diffs = tuple(b - a for a, b in zip(ordered, ordered[1:]))
    return DigitSumProfile(sd_values=sds, ordered_distinct=ordered, diff_pattern=_detect_pattern(diffs))


def divisibility_positions(p: QuadPoly, k: int) -> frozenset[int]:
    """Positions within one residue period where k divides the value."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cyc = residue_cycle(p, k)
    return frozenset(i for i, r in enumerate(cyc.cycle) if r == 0)


class SixClass(Enum):
    """Residue class mod 6; every prime > 3 lands in SQ1 or SQ2."""

    SQ1 = "SQ1"  # n = 5 (mod 6): 5, 11, 17, 23, ...
    SQ2 = "SQ2"  # n = 1 (mod 6): 1, 7, 13, 19, ...
    OTHER = "Other"


def six_classify(n: int) -> SixClass:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = n % 6
    if r == 5:
        return SixClass.SQ1
    if r == 1:
        return SixClass.SQ2
    return SixClass.OTHER
