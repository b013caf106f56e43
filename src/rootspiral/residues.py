"""Modular periodicity of quadratic sequences.

Because f(t+k) - f(t) = k*(2at + ak + b), the residue stream f(t) mod k is
periodic with period dividing k for every modulus k.  Number endings are
the k = 10 case; digit sums inherit their structure from the values mod 9.
Every cycle starts at the first arm term, x = 1, the indexing of the printed
tables.

Note the period-divides-k fact is stronger than the pigeonhole bound that
is sometimes quoted for such recurrences (which only gives k^2): the
coprime-to-30 pattern of a sequence, for instance, recurs with period
dividing 30, never up to 900.
"""

from .quad import QuadPoly

# The mod-10 periods the paper claims for the endings of its arms.
ENDING_PERIODS = (1, 5)


def residue_cycle(p: QuadPoly, k: int) -> tuple[int, ...]:
    """Residues of f(1), f(2), ... mod k over one minimal period; its length is the period.

    The period is the least d with f(t+d) = f(t) (mod k) for all t, found
    by direct search over the divisors of k (d = k always works).
    """
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    # f(t+d) - f(t) = 2ad*t + ad^2 + bd vanishes mod k for all t iff both
    # coefficients do.
    period = next(
        d for d in range(1, k + 1)
        if k % d == 0 and (2 * p.a * d) % k == 0 and (p.a * d * d + p.b * d) % k == 0
    )
    return tuple(p(t) % k for t in range(1, period + 1))


def digit_sum(n: int) -> int:
    """Base-10 digit sum."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(int(d) for d in str(n))


def digit_sum_gaps(p: QuadPoly) -> tuple[int, ...]:
    """Cyclic gaps between the classes of f's image mod 9, smallest rotation.

    A digit sum is = f(x) (mod 9), so every digit sum of the arm lies in a
    class of f's image mod 9, read as digit sums (0 as 9, 18, ...), and its
    ordered distinct digit sums step by the gaps between those classes, which
    sum to 9.  Completing the square gives the image u*{0, 1, 4, 7} + c' when
    3 does not divide a, so the gaps are (1,3,3,2) for a = 1 (the d2 = 20
    arms) and (1,2,3,3) for a = 2 (mod 3) (the d2 = 22 arms).  When 3
    divides a exactly, the gap is 1 if 3 does not divide b and the cycle
    (3,6) if it does.  When 9 divides a, f = bx + c (mod 9), so the gap is
    gcd(b, 9): a constant 1, 3 or 9.  A window of terms shows the cycle only
    where it reaches every digit sum in its range.  The gaps describe an arm
    only when a > 0: a line or a constant is no arm, and for a < 0 only
    finitely many terms are positive.
    """
    image = sorted(set(residue_cycle(p, 9)))
    gaps = [b - a for a, b in zip(image, image[1:])] + [image[0] + 9 - image[-1]]
    return min(tuple(gaps[i:] + gaps[:i]) for i in range(len(gaps)))


def divisibility_positions(p: QuadPoly, k: int) -> frozenset[int]:
    """Arm indices x in 1 .. period where k divides f(x)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return frozenset(x for x, r in enumerate(residue_cycle(p, k), start=1) if r == 0)


def six_classify(n: int) -> str:
    """Residue class mod 6: "SQ1" for n = 5, "SQ2" for n = 1 (mod 6), else "Other".

    Every prime above 3 lands in SQ1 (5, 11, 17, ...) or SQ2 (7, 13, 19, ...).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return {5: "SQ1", 1: "SQ2"}.get(n % 6, "Other")
