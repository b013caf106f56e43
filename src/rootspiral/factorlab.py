"""Primality, factorization, and the factor-period structure of spiral arms.

A prime q divides some value of f(x) = ax^2+bx+c exactly when the
congruence f(t) = 0 (mod q) has a root; for q not dividing 2a that is the
quadratic-residue test on the discriminant b^2-4ac.  The roots mod q are
the positions (spiral winds) where q-divisible values recur, and their
spacings are the observed factor periods: one root gives gap q, two roots
give a gap pair summing to q.
"""

import itertools
import math
from typing import NamedTuple, Sequence

from .quad import VALUE_LIMIT, QuadPoly
from .sieve import primes_up_to

# Deterministic Miller-Rabin: _MR_TIERS holds (bound, bases) pairs, and the
# bases of the first bound above n decide whether n is prime, on n with no
# prime factor up to 47.  Below 4296595241 one base does, picked from
# _MR_BASES_32 by a hash of n (Forisek and Jancina, "Fast Primality Testing
# for Integers That Fit into a Machine Word", 2015).  Below 2^64 Jim
# Sinclair's seven bases do (miller-rabin.appspot.com).  From 2^64 the bases
# are the twelve primes 2..37, which decide every n below _MR_LIMIT =
# 399165290221 * 798330580441 ~ 3.19e23, the least strong pseudoprime to all
# of them (OEIS A014233; Jaeschke, Math. Comp. 61, 1993).  pow(a, d, n)
# reduces a base itself, and only one that is 0 or 1 mod n would need
# skipping.  None is: Sinclair's bases lie below 4296595241 and 2..37 below
# 2^64, the least n of their tiers; the hashed bases are at most 55637, and
# no n of their tier up to there (from 2809, with no prime factor up to 47;
# the tests check each) draws one that is 0 or 1 mod n.
_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
_MR_BASES_32 = (
    15591, 2018, 166, 7429, 8064, 16045, 10503, 4399, 1949, 1295, 2776, 3620, 560, 3128,
    5212, 2657, 2300, 2021, 4652, 1471, 9336, 4018, 2398, 20462, 10277, 8028, 2213,
    6219, 620, 3763, 4852, 5012, 3185, 1333, 6227, 5298, 1074, 2391, 5113, 7061, 803,
    1269, 3875, 422, 751, 580, 4729, 10239, 746, 2951, 556, 2206, 3778, 481, 1522, 3476,
    481, 2487, 3266, 5633, 488, 3373, 6441, 3344, 17, 15105, 1490, 4154, 2036, 1882,
    1813, 467, 3307, 14042, 6371, 658, 1005, 903, 737, 1887, 7447, 1888, 2848, 1784,
    7559, 3400, 951, 13969, 4304, 177, 41, 19875, 3110, 13221, 8726, 571, 7043, 6943,
    1199, 352, 6435, 165, 1169, 3315, 978, 233, 3003, 2562, 2994, 10587, 10030, 2377,
    1902, 5354, 4447, 1555, 263, 27027, 2283, 305, 669, 1912, 601, 6186, 429, 1930,
    14873, 1784, 1661, 524, 3577, 236, 2360, 6146, 2850, 55637, 1753, 4178, 8466, 222,
    2579, 2743, 2031, 2226, 2276, 374, 2132, 813, 23788, 1610, 4422, 5159, 1725, 3597,
    3366, 14336, 579, 165, 1375, 10018, 12616, 9816, 1371, 536, 1867, 10864, 857, 2206,
    5788, 434, 8085, 17618, 727, 3639, 1595, 4944, 2129, 2029, 8195, 8344, 6232, 9183,
    8126, 1870, 3296, 7455, 8947, 25017, 541, 19115, 368, 566, 5674, 411, 522, 1027,
    8215, 2050, 6544, 10049, 614, 774, 2333, 3007, 35201, 4706, 1152, 1785, 1028, 1540,
    3743, 493, 4474, 2521, 26845, 8354, 864, 18915, 5465, 2447, 42, 4511, 1660, 166,
    1249, 6259, 2553, 304, 272, 7286, 73, 6554, 899, 2816, 5197, 13330, 7054, 2818,
    3199, 811, 922, 350, 7514, 4452, 3449, 2663, 4708, 418, 1621, 1171, 3471, 88, 11345,
    412, 1559, 194,
)
_MR_TIERS = (
    (53 * 53, ()),  # an n below 53^2 with no prime factor up to 47 is prime
    (4_296_595_241, _MR_BASES_32),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)
_MR_LIMIT = _MR_TIERS[-1][0]
# Pollard rho steps (squarings of y) one factor search may take.  A value below
# 2^63 has a factor below 2^31.5, found within 2^18 steps in every one of 300
# balanced semiprimes tried near 2^62; the budget is 64 times that.  It splits
# a semiprime with both factors near 1e12 (2^21 steps) and gives up on one
# with both near 1e15 after about 10 s on a 2-vCPU VM.
_RHO_BUDGET = 1 << 24
# Most cofactors one Brent walk takes at once (_brent_walk).  A walk step
# costs an interpreter floor plus a product and a long division that grow
# with the square of N's length, and the walk lasts until its slowest
# cofactor splits.  Against one walk per cofactor, on a 2-vCPU VM, an
# 1800-term B3 window ending near 2^63 ran 1.29x faster with 8, 1.32x with
# 16, 1.27x with 32 and 1.11x with 64; 45-term windows there (about 42
# cofactors) ran 1.24-1.29x faster with any cap from 16 to 48.
_RHO_BATCH = 16


class ChainNotFoundError(ValueError):
    """No admissible first step found within the search window."""


_TRIAL_PRIMES = tuple(primes_up_to(1000))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below _MR_LIMIT ~ 3.19e23.

    One gcd with the product of the primes up to 47 replaces trial division.
    An n below 53^2 that survives it is prime; above, n runs the Miller-Rabin
    bases of its tier (_MR_TIERS): one base hashed from n below 4296595241
    (Forisek and Jancina, 2015), Sinclair's seven bases below 2^64, and the
    twelve primes 2..37 up to _MR_LIMIT (Jaeschke; OEIS A014233).  No base is
    0 or 1 mod an n of its tier, so none is reduced or skipped.  A 'composite'
    answer is exact for every n.  From _MR_LIMIT = 318665857834031151167461
    on, the first n that the twelve primes wrongly call prime, an n that
    passes them all raises OverflowError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    for bound, bases in _MR_TIERS:  # from _MR_LIMIT on, the last tier's bases
        if n < bound:
            break
    if bases is _MR_BASES_32:
        h = ((n >> 16) ^ n) * 0x45D9F3B
        h = ((h >> 16) ^ h) * 0x45D9F3B
        bases = (_MR_BASES_32[((h >> 16) ^ h) & 255],)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise OverflowError(f"is_prime can prove primality only below {_MR_LIMIT}, got {n}")
    return True


def _pollard_brent(ns: list[int]) -> list[int]:
    """One nontrivial factor of each odd composite in ns (Brent's cycle variant).

    Each n gets the factor that the walk y <- y^2 + c (mod n) from y = 2
    finds, with c = 1, 2, ... tried in turn; the schedule is fixed, so
    factorizations are reproducible run to run.  Up to _RHO_BATCH distinct
    cofactors walk as one, modulo their product (_brent_walk).  Raises
    ArithmeticError instead of taking more than _RHO_BUDGET steps for one n,
    which only a factor far above 2^31.5 needs.
    """
    steps = dict.fromkeys(ns, 0)  # the distinct cofactors, in the order given
    found: dict[int, int] = {}
    todo = list(steps)
    for c in itertools.count(1):  # steps[n] carries across c, so the budget ends it
        todo = [n for i in range(0, len(todo), _RHO_BATCH)
                for n in _brent_walk(todo[i:i + _RHO_BATCH], c, steps, found)]
        if not todo:
            return [found[n] for n in ns]


def _brent_walk(ns: list[int], c: int, steps: dict[int, int], found: dict[int, int]) -> list[int]:
    """Walk y <- y^2 + c for the distinct cofactors ns at once; return those to retry.

    The walk runs modulo N, the product of the cofactors still active, so y,
    x and the gcd product q reduced mod n are those of n's own walk, and so
    are its block gcds gcd(q, n).  A cofactor leaves N at its first block gcd
    other than 1.  If that gcd is n, it backtracks alone mod n from ys, and
    if that gives n again, it is returned to be tried with c + 1.  steps[n]
    counts n's own steps across values of c; the first active cofactor in ns
    whose count would pass _RHO_BUDGET raises.
    """
    active = ns
    big_n = math.prod(active)
    y, m, r, q, walked = 2, 128, 1, 1, 0
    retry = []
    while active:
        walked += 2 * r  # this round walks y at most 2r steps
        for n in active:
            if steps[n] + walked > _RHO_BUDGET:
                raise ArithmeticError(f"Pollard rho found no factor of {n} in {_RHO_BUDGET} steps")
        x = y
        for _ in range(r):
            y = (y * y + c) % big_n
        k = 0
        while k < r and active:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % big_n
                q = q * (x - y) % big_n  # a sign changes no gcd with n
            k += m
            if math.gcd(q, big_n) == 1:
                continue
            stay = []
            for n in active:
                g = math.gcd(q, n)
                if g == 1:
                    stay.append(n)
                    continue
                steps[n] += walked
                if g == n:  # the block's gcd took every factor of n
                    xn, yn, g = x % n, ys % n, 1
                    while g == 1:
                        yn = (yn * yn + c) % n
                        g = math.gcd(xn - yn, n)
                if g == n:
                    retry.append(n)
                else:
                    found[n] = g
            active = stay
            big_n = math.prod(active)
            y, x, q = y % big_n, x % big_n, q % big_n
        r *= 2
    return retry


class Factorization(NamedTuple):
    """A factorization as a sorted tuple of (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)

    @property
    def smallest(self) -> int:
        return self.factors[0][0]


def factorize(n: int) -> Factorization:
    """Complete prime factorization by trial division plus Pollard rho.

    Raises OverflowError when a cofactor at or above is_prime's exact range
    passes every Miller-Rabin witness; cofactors there that fail a witness
    are split as below it.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _factorizations([n])[0]


def _factorizations(values: list[int]) -> list[Factorization]:
    """The factorization of each value >= 2: trial division, then rho in rounds.

    A round keeps the cofactors that is_prime proves prime and splits all the
    others in one _pollard_brent call; both halves of each split go on to the
    next round.
    """
    found: list[dict[int, int]] = [{} for _ in values]
    left = []  # (index into values, cofactor > 1)
    for i, remaining in enumerate(values):
        powers = found[i]
        for p in _TRIAL_PRIMES:
            if p * p > remaining:
                break
            while remaining % p == 0:
                powers[p] = powers.get(p, 0) + 1
                remaining //= p
        if remaining > 1:
            left.append((i, remaining))
    while left:
        composite = []
        for i, m in left:
            if is_prime(m):
                found[i][m] = found[i].get(m, 0) + 1
            else:
                composite.append((i, m))
        split = _pollard_brent([m for _, m in composite])
        left = [(i, h) for (i, m), d in zip(composite, split) for h in (d, m // d)]
    return [Factorization(factors=tuple(sorted(powers.items()))) for powers in found]


def _mod_sqrt(a: int, p: int) -> int | None:
    """A square root of a mod prime p (Tonelli-Shanks), or None.

    p must be prime, and is not checked: for a composite p the answer can be
    wrong (None for 4 mod 15) or never come (1 mod 9 loops in the search for
    a non-residue).  The one caller, _solve, takes q from the sieve or from
    root_classes, which checks it with is_prime.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class RootClasses(NamedTuple):
    """Residues t mod p with p | f(t), and the recurrence gap structure."""

    p: int
    roots: Sequence[int]  # ascending: a tuple, or range(p) when every residue is a root
    gaps: tuple[int, ...]


def _solve(p: QuadPoly, q: int) -> Sequence[int]:
    """The sorted roots of f mod prime q, solved without a scan.

    q | a leaves the linear equation bt + c (every residue, or none, when q
    | b too); q = 2 checks t = 0 and 1, since 2a has no inverse mod 2;
    otherwise the roots are the two square roots of the discriminant over 2a.
    """
    if p.a % q == 0:
        if p.b % q == 0:
            return range(q) if p.c % q == 0 else ()
        return ((-p.c * pow(p.b, -1, q)) % q,)
    if q == 2:
        return tuple(t for t in (0, 1) if p(t) % 2 == 0)
    s = _mod_sqrt(p.discriminant, q)
    if s is None:
        return ()
    inv2a = pow(2 * p.a, -1, q)
    return tuple(sorted({(-p.b + s) * inv2a % q, (-p.b - s) * inv2a % q}))


def root_classes(p: QuadPoly, q: int) -> RootClasses:
    """Solve a*t^2 + b*t + c = 0 (mod q) for prime q.

    _solve answers q >= 10 000 and every q that divides a.  Below 10 000 with
    q not dividing a, f is a true quadratic over the field Z/q: it has at most
    two roots (Lagrange), and they sum to -b/a (Vieta).  So the scan stops at
    the first root r1, the smallest, and the other is -b/a - r1, equal to r1
    for a double root.  One root recurs with gap q; two roots r1 < r2 recur
    with alternating gaps (r2-r1, q-(r2-r1)).
    """
    if q < 2 or not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q >= 10_000 or p.a % q == 0:
        roots = _solve(p, q)
    else:
        f = p.__call__  # bound once: calling the record p looks up __call__ on every call
        r1 = next((t for t in range(q) if f(t) % q == 0), None)
        roots = () if r1 is None else tuple(sorted({r1, (-p.b * pow(p.a, -1, q) - r1) % q}))
    if len(roots) == q:  # every residue is a root
        gaps: tuple[int, ...] = (1,)
    elif not roots:
        gaps = ()
    elif len(roots) == 1:
        gaps = (q,)
    else:
        g = roots[1] - roots[0]
        gaps = tuple(sorted((g, q - g)))
    return RootClasses(p=q, roots=roots, gaps=gaps)


class AdmissiblePrimes(NamedTuple):
    """Primes up to a bound that divide at least one value of the polynomial."""

    primes: tuple[int, ...]


def admissible_primes(p: QuadPoly, bound: int) -> AdmissiblePrimes:
    """Every prime q <= bound with a root of f mod q, as _solve finds them."""
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    primes = tuple(q for q in primes_up_to(bound) if _solve(p, q))
    return AdmissiblePrimes(primes=primes)


class SplitComparison(NamedTuple):
    equal: bool
    witness: int | None  # first prime whose root/gap structure differs


def same_splitting(pa: QuadPoly, pb: QuadPoly, bound: int) -> SplitComparison:
    """Do two polynomials admit the same primes with the same gap multisets?

    Compares, for every prime q <= bound, the gap multisets of the root
    classes, which are empty exactly when f has no root mod q, so they
    decide admissibility too; phases (actual root positions) are not
    compared.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    for q in primes_up_to(bound):
        ra, rb = root_classes(pa, q), root_classes(pb, q)
        if ra.gaps != rb.gaps:
            return SplitComparison(equal=False, witness=q)
    return SplitComparison(equal=True, witness=None)


class TermRecord(NamedTuple):
    x: int
    value: int
    prime: bool
    factorization: Factorization | None  # set for composite values >= 2


class DensityReport(NamedTuple):
    """Primality and factor structure over one index window of an arm."""

    records: tuple[TermRecord, ...]

    @property
    def prime_count(self) -> int:
        return sum(r.prime for r in self.records)

    @property
    def prime_share(self) -> float:
        return self.prime_count / len(self.records) if self.records else 0.0

    @property
    def coprime_share(self) -> float:
        if not self.records:
            return 0.0
        return sum(math.gcd(r.value, 30) == 1 for r in self.records) / len(self.records)


def density_scan(p: QuadPoly, x0: int, x1: int) -> DensityReport:
    """Per-term primality/factorization report for x in [x0, x1).

    The composite values are factored together (_factorizations), each
    exactly as factorize factors it alone.
    """
    if x1 > x0:
        extremes = [p(x0), p(x1 - 1)]
        if p.a != 0:
            vertex = -p.b // (2 * p.a)  # |f| can peak inside the window when a < 0
            if x0 <= vertex < x1:
                extremes.extend((p(vertex), p(vertex + 1)))
        if max(abs(v) for v in extremes) > VALUE_LIMIT:
            raise OverflowError(f"values exceed 2^63 in window [{x0}, {x1})")
    values = [p(x) for x in range(x0, x1)]
    composite = [v >= 2 and not is_prime(v) for v in values]
    factorizations = iter(_factorizations([v for v, c in zip(values, composite) if c]))
    return DensityReport(records=tuple(
        TermRecord(x=x, value=v, prime=v >= 2 and not c,
                   factorization=next(factorizations) if c else None)
        for x, v, c in zip(range(x0, x1), values, composite)
    ))


class ChainCandidate(NamedTuple):
    delta1: int
    score: float  # max |per-step angle - 2*pi| over the scored prefix
    values: tuple[int, ...]


class ArmChain(NamedTuple):
    """A one-wind-per-step chain found on the spiral."""

    delta1: int
    values: tuple[int, ...]
    drifts: tuple[float, ...]  # per-step angle minus 2*pi
    candidates: tuple[ChainCandidate, ...]  # all scored windows, best first


_SCORE_STEPS = 10
_DELTA_WINDOW = 15.0


def detect_arm_chain(seed: int, d2: int, length: int) -> ArmChain:
    """Find the arm chain of the given second difference starting at seed.

    Candidate first steps are the even integers within +-15 of
    2*pi*sqrt(seed) (one wind); each candidate is the running sum of its
    steps delta1, delta1 + d2, delta1 + 2*d2, ... (exact for any integer d2)
    and is scored by its worst per-step angular drift over the
    first ten steps, each step's angle read from the closed form
    (spiral._span, O(1) per step).  The per-step angle tends to sqrt(2*d2)
    radians, so one-wind-per-step chains need sqrt(2*d2) near 2*pi, i.e. d2
    near 2*pi^2 ~ 19.7; that is why the observed prime-rich chains carry d2
    in {18, 20, 22}.  Candidates whose drift reaches a quarter wind within
    those ten steps are discarded.  The drifts of the best candidate, all
    length - 1 of them, are then summed directly, step by step, by
    spiral.angle_between.  If one of those reaches a quarter wind,
    ChainNotFoundError is raised, so every returned drift is below pi/2 in
    absolute value.  (The per-step bend d2/sqrt(n) shrinks with n: from seed
    ~9.4e5 on, a d2 = 200 chain passes the ten-step score and drifts away
    only later.)
    """
    from . import spiral  # imported by its only user, so factor and density runs skip it

    if seed < 1:
        raise ValueError(f"seed must be >= 1, got {seed}")
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    base = 2.0 * math.pi * math.sqrt(seed)
    lo = max(2, int(math.ceil(base - _DELTA_WINDOW)))
    lo += lo % 2
    hi = int(math.floor(base + _DELTA_WINDOW))
    count = max(_SCORE_STEPS + 1, length)
    candidates = []
    for delta1 in range(lo, hi + 1, 2):
        steps = itertools.islice(itertools.count(delta1, d2), count - 1)
        vals = list(itertools.accumulate(steps, initial=seed))
        score = max(abs(spiral._span(vals[i], vals[i + 1]) - spiral.TWO_PI)
                    for i in range(_SCORE_STEPS))
        if score < math.pi / 2.0:
            candidates.append(ChainCandidate(delta1, score, tuple(vals[:length])))
    if not candidates:
        raise ChainNotFoundError(f"no admissible first step near 2*pi*sqrt({seed})")
    candidates.sort(key=lambda c: (c.score, c.delta1))
    best = candidates[0]
    vals = best.values
    drifts = [spiral.angle_between(vals[i], vals[i + 1]) - spiral.TWO_PI for i in range(length - 1)]
    for i, drift in enumerate(drifts):
        if abs(drift) >= math.pi / 2.0:
            raise ChainNotFoundError(
                f"best first step {best.delta1} from {seed} drifts {drift:.3f} rad at step {i + 1},"
                " past a quarter wind"
            )
    return ArmChain(
        delta1=best.delta1, values=vals, drifts=tuple(drifts), candidates=tuple(candidates)
    )
