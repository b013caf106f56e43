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

from enum import Enum
from typing import NamedTuple

from .quad import QuadPoly


class ResidueCycle(NamedTuple):
    """Residues of f(1), f(2), ... mod k over one minimal period."""

    modulus: int
    period: int
    cycle: tuple[int, ...]

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


class DigitSumProfile(NamedTuple):
    """Digit sums of the first terms, their ordered distinct values, and the
    gap cycle of the arm's ordered distinct digit sums."""

    sd_values: tuple[int, ...]
    ordered_distinct: tuple[int, ...]
    gaps: tuple[int, ...]


def _digit_sum_gaps(p: QuadPoly) -> tuple[int, ...]:
    """Cyclic gaps between the classes of f's image mod 9, smallest rotation.

    The classes are read as digit sums (0 as 9, 18, ...); the gaps sum to 9.
    Completing the square gives the image u*{0, 1, 4, 7} + c' when 3 does
    not divide a, so the gaps are (1,3,3,2) for a = 1 and (1,2,3,3) for
    a = 2 (mod 3).  When 3 divides a exactly, the gap is 1 if 3 does not
    divide b and the cycle (3,6) if it does.  When 9 divides a, f = bx + c
    (mod 9), so the gap is gcd(b, 9).
    """
    image = sorted(set(residue_cycle(p, 9).cycle))
    gaps = [b - a for a, b in zip(image, image[1:])] + [image[0] + 9 - image[-1]]
    return min(tuple(gaps[i:] + gaps[:i]) for i in range(len(gaps)))


def sd_profile(p: QuadPoly, n_terms: int = 25) -> DigitSumProfile:
    """Digit-sum profile of f(1 .. n_terms) and the gap cycle of the arm.

    A digit sum is = f(x) (mod 9), so every digit sum of the arm lies in a
    class of f's image mod 9, and its ordered distinct digit sums step by the
    gaps between those classes: a constant 1, 3 or 9, or the cycles (3,6),
    (1,3,3,2) (a = 1 mod 3, the d2 = 20 arms) and (1,2,3,3) (a = 2 mod 3,
    the d2 = 22 arms).  A window shows the cycle only where it reaches every
    digit sum in its range.  The gaps describe the arm only when a > 0:
    otherwise only finitely many terms are positive.
    """
    if n_terms < 5:
        raise ValueError(f"need at least 5 terms, got {n_terms}")
    sds = tuple(digit_sum(p(t)) for t in range(1, n_terms + 1))
    return DigitSumProfile(sd_values=sds, ordered_distinct=tuple(sorted(set(sds))),
                           gaps=_digit_sum_gaps(p))


def divisibility_positions(p: QuadPoly, k: int) -> frozenset[int]:
    """Arm indices x in 1 .. period where k divides f(x)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cyc = residue_cycle(p, k)
    return frozenset(x for x, r in enumerate(cyc.cycle, start=1) if r == 0)


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
