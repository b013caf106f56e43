"""Primality, factorization, and the factor-period structure of spiral arms.

A prime q divides some value of f(x) = ax^2+bx+c exactly when the
congruence f(t) = 0 (mod q) has a root; for q not dividing 2a that is the
quadratic-residue test on the discriminant b^2-4ac.  The roots mod q are
the positions (spiral winds) where q-divisible values recur, and their
spacings are the observed factor periods: one root gives gap q, two roots
give a gap pair summing to q.
"""

import math
from typing import NamedTuple

from . import quad
from .quad import VALUE_LIMIT, QuadPoly
from .sieve import primes_up_to

# Deterministic Miller-Rabin witness set and, aligned with it, the bound below
# which the witnesses before each one already decide primality.  _MR_BOUNDS[k]
# for k >= 1 is OEIS A014233(k), the least strong pseudoprime to the first k
# witnesses (Jaeschke, Math. Comp. 61, 1993); _MR_BOUNDS[0] = 41^2, since an n
# below it with no prime factor up to 37 is prime.  The last bound, _MR_LIMIT
# = 399165290221 * 798330580441 ~ 3.19e23, is where all twelve stop being enough.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
    1_681,
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)
_MR_LIMIT = _MR_BOUNDS[-1]
# Pollard rho steps (squarings of y) one factor search may take.  A value below
# 2^63 has a factor below 2^31.5, found within 2^18 steps in every one of 300
# balanced semiprimes tried near 2^62; the budget is 64 times that.  It splits
# a semiprime with both factors near 1e12 (2^21 steps) and gives up on one
# with both near 1e15 after about 10 s on a 2-vCPU VM.
_RHO_BUDGET = 1 << 24


class ChainNotFoundError(ValueError):
    """No admissible first step found within the search window."""


_TRIAL_PRIMES = tuple(primes_up_to(1000))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below _MR_LIMIT ~ 3.19e23.

    After trial division by the witnesses 2..37, the witnesses run in order
    and n is prime as soon as it lies below the bound of the prefix that has
    passed: below 41^2 = 1681 with none, below 2047 after base 2, below
    3215031751 after bases 2..7, and every base only from 3825123056546413051
    on (OEIS A014233).  A 'composite' answer is exact for every n.  From
    _MR_LIMIT = 318665857834031151167461 on, the first n that the twelve
    witnesses wrongly call prime, an n that passes them all raises
    OverflowError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, bound in zip(_MR_WITNESSES, _MR_BOUNDS):
        if n < bound:
            return True
        x = pow(a, d, n)
        if x in (1, n - 1):
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


def _pollard_brent(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant).

    The (y, c) start values walk a fixed schedule, so factorizations are
    reproducible run to run.  Raises ArithmeticError instead of taking more
    than _RHO_BUDGET steps, which only a factor far above 2^31.5 needs.
    """
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # this round walks y at most 2r steps
            if steps > _RHO_BUDGET:
                raise ArithmeticError(f"Pollard rho found no factor of {n} in {_RHO_BUDGET} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


class Factorization(NamedTuple):
    """n as a sorted tuple of (prime, exponent) pairs."""

    n: int
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
    remaining = n
    found: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > remaining:
            break
        while remaining % p == 0:
            found[p] = found.get(p, 0) + 1
            remaining //= p
    stack = [remaining] if remaining > 1 else []
    while stack:
        m = stack.pop()  # > 1: rho splits m into two factors, each > 1
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return Factorization(n=n, factors=tuple(sorted(found.items())))


def mod_sqrt(a: int, p: int) -> int | None:
    """A square root of a mod prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
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
    roots: frozenset[int]
    gaps: tuple[int, ...]


def root_classes(p: QuadPoly, q: int) -> RootClasses:
    """Solve a*t^2 + b*t + c = 0 (mod q) for prime q.

    Small moduli are brute forced; large ones go through Tonelli-Shanks on
    the discriminant.  One root recurs with gap q; two roots r1 < r2 recur
    with alternating gaps (r2-r1, q-(r2-r1)).
    """
    if q < 2 or not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if q < 10_000:
        f = p.__call__  # bound once: calling the record p looks up __call__ on every call
        roots = [t for t in range(q) if f(t) % q == 0]
    elif p.a % q == 0:
        if p.b % q == 0:
            roots = list(range(q)) if p.c % q == 0 else []
        else:
            roots = [(-p.c * pow(p.b, -1, q)) % q]
    else:
        disc = p.discriminant % q
        s = mod_sqrt(disc, q)
        if s is None:
            roots = []
        else:
            inv2a = pow(2 * p.a, -1, q)
            roots = sorted({(-p.b + s) * inv2a % q, (-p.b - s) * inv2a % q})
    if len(roots) == q:  # degenerate: q divides all three coefficients
        gaps: tuple[int, ...] = (1,)
    elif not roots:
        gaps = ()
    elif len(roots) == 1:
        gaps = (q,)
    else:
        g = roots[1] - roots[0]
        gaps = tuple(sorted((g, q - g)))
    return RootClasses(p=q, roots=frozenset(roots), gaps=gaps)


class AdmissiblePrimes(NamedTuple):
    """Primes up to a bound that divide at least one value of the polynomial."""

    poly: QuadPoly
    bound: int
    primes: tuple[int, ...]
    discriminant: int


def admissible_primes(p: QuadPoly, bound: int) -> AdmissiblePrimes:
    """Every prime q <= bound with a root of f mod q.

    For q not dividing 2a, f has a root mod q exactly when the discriminant
    has a square root mod q (mod_sqrt); q = 2 and q | a fall back to
    root_classes.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    hits = []
    for q in primes_up_to(bound):
        if q > 2 and (2 * p.a) % q != 0:
            if mod_sqrt(p.discriminant, q) is not None:
                hits.append(q)
        elif root_classes(p, q).roots:
            hits.append(q)
    return AdmissiblePrimes(poly=p, bound=bound, primes=tuple(hits), discriminant=p.discriminant)


class SplitComparison(NamedTuple):
    equal: bool
    witness: int | None  # first prime whose root/gap structure differs


def same_splitting(pa: QuadPoly, pb: QuadPoly, bound: int) -> SplitComparison:
    """Do two polynomials admit the same primes with the same gap multisets?

    Compares, for every prime q <= bound, admissibility and the gap
    multiset of the root classes; phases (actual root positions) are not
    compared.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    for q in primes_up_to(bound):
        ra, rb = root_classes(pa, q), root_classes(pb, q)
        if (len(ra.roots) == 0) != (len(rb.roots) == 0) or ra.gaps != rb.gaps:
            return SplitComparison(equal=False, witness=q)
    return SplitComparison(equal=True, witness=None)


class TermRecord(NamedTuple):
    x: int
    value: int
    prime: bool
    factorization: Factorization | None  # set for composite values >= 2
    coprime30: bool


class DensityReport(NamedTuple):
    """Primality and factor structure over one index window of an arm."""

    poly: QuadPoly
    x0: int
    x1: int
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
        return sum(r.coprime30 for r in self.records) / len(self.records)


def _scan_one(p: QuadPoly, x: int) -> TermRecord:
    v = p(x)
    prime = v >= 2 and is_prime(v)
    fac = factorize(v) if (v >= 2 and not prime) else None
    return TermRecord(x=x, value=v, prime=prime, factorization=fac, coprime30=math.gcd(v, 30) == 1)


def density_scan(p: QuadPoly, x0: int, x1: int) -> DensityReport:
    """Per-term primality/factorization report for x in [x0, x1)."""
    if x1 > x0:
        extremes = [p(x0), p(x1 - 1)]
        if p.a != 0:
            vertex = -p.b // (2 * p.a)  # |f| can peak inside the window when a < 0
            if x0 <= vertex < x1:
                extremes.extend((p(vertex), p(vertex + 1)))
        if max(abs(v) for v in extremes) > VALUE_LIMIT:
            raise OverflowError(f"values exceed 2^63 in window [{x0}, {x1})")
    records = tuple(_scan_one(p, x) for x in range(x0, x1))
    return DensityReport(poly=p, x0=x0, x1=x1, records=records)


class ChainCandidate(NamedTuple):
    delta1: int
    score: float  # max |per-step angle - 2*pi| over the scored prefix
    values: tuple[int, ...]


class ArmChain(NamedTuple):
    """A one-wind-per-step chain found on the spiral."""

    seed: int
    d2: int
    delta1: int
    values: tuple[int, ...]
    drifts: tuple[float, ...]  # per-step angle minus 2*pi
    candidates: tuple[ChainCandidate, ...]  # all scored windows, best first


_SCORE_STEPS = 10
_DELTA_WINDOW = 15.0


def detect_arm_chain(seed: int, d2: int, length: int) -> ArmChain:
    """Find the arm chain of the given second difference starting at seed.

    Candidate first steps are the even integers within +-15 of
    2*pi*sqrt(seed) (one wind); each candidate is extended by the constant
    d2 recurrence and scored by its worst per-step angular drift over the
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
    delta1s = range(lo, hi + 1, 2)
    chains = [
        quad.extend([seed, seed + delta1, seed + 2 * delta1 + d2], count - 3) for delta1 in delta1s
    ]
    candidates = []
    for delta1, vals in zip(delta1s, chains):
        score = max(abs(spiral._span(vals[i], vals[i + 1]) - spiral.TWO_PI)
                    for i in range(_SCORE_STEPS))
        if score < math.pi / 2.0:
            candidates.append((score, delta1, vals))
    if not candidates:
        raise ChainNotFoundError(f"no admissible first step near 2*pi*sqrt({seed})")
    candidates.sort(key=lambda item: (item[0], item[1]))
    _, delta1, vals = candidates[0]
    drifts = [spiral.angle_between(vals[i], vals[i + 1]) - spiral.TWO_PI for i in range(length - 1)]
    for i, drift in enumerate(drifts):
        if abs(drift) >= math.pi / 2.0:
            raise ChainNotFoundError(
                f"best first step {delta1} from {seed} drifts {drift:.3f} rad at step {i + 1},"
                " past a quarter wind"
            )
    return ArmChain(
        seed=seed,
        d2=d2,
        delta1=delta1,
        values=tuple(vals[:length]),
        drifts=tuple(drifts),
        candidates=tuple(
            ChainCandidate(delta1=d1, score=s, values=tuple(v[:length]))
            for s, d1, v in candidates
        ),
    )
