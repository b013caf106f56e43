"""Primality, factorization, root classes, density scans, chain detection."""

import collections
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootspiral import factorlab, spiral
from rootspiral.factorlab import (
    ChainNotFoundError,
    _mod_sqrt,
    admissible_primes,
    density_scan,
    detect_arm_chain,
    factorize,
    is_prime,
    primes_up_to,
    root_classes,
    same_splitting,
)
from rootspiral.fixtures import load_fixtures
from rootspiral.quad import VALUE_LIMIT, QuadPoly

A3 = QuadPoly(9, 3, -1)
B3 = QuadPoly(9, 9, -1)
Q3 = QuadPoly(11, -31, 31)
S1 = QuadPoly(11, -13, 13)
K5 = QuadPoly(11, 3, -1)
B33 = QuadPoly(9, -9, 89)
G1 = QuadPoly(10, -20, 23)


def brute_roots(p: QuadPoly, q: int) -> list[int]:
    return sorted(t for t in range(q) if p(t) % q == 0)


def _same_form_pair(f: QuadPoly, s: int, t: int, lam: int) -> tuple[QuadPoly, QuadPoly]:
    """f and g = lam*f(s*x + t), s = +-1: a shift, a mirror f(t - x) and a multiple.
    Then a' = lam*a and D' = lam^2*D, so D*a'^2 = D'*a^2."""
    return f, QuadPoly(lam * f.a, lam * s * (2 * f.a * t + f.b), lam * f(t))


SAME_FORM_PAIRS = st.builds(
    _same_form_pair,
    st.builds(QuadPoly, st.integers(-30, 30), st.integers(-60, 60), st.integers(-60, 60)).filter(
        lambda f: f.a * f.discriminant != 0
    ),
    st.sampled_from((1, -1)),
    st.integers(-20, 20),
    st.integers(-6, 6).filter(bool),
)


class TestIsPrime:
    def test_table_one_value(self):
        assert is_prime(2500250003)

    def test_composite_989(self):
        assert not is_prime(989)

    def test_one(self):
        assert not is_prime(1)

    def test_against_sieve(self):
        # every n below 2e6: no base below 53^2, the hashed base above
        flags = set(primes_up_to(2 * 10**6))
        for n in range(1, 2 * 10**6):
            assert is_prime(n) == (n in flags), n

    def test_largest_64bit_prime(self):
        assert is_prime(18446744073709551557)
        assert not is_prime(18446744073709551555)

    def test_domain(self):
        with pytest.raises(ValueError):
            is_prime(0)

    def test_strong_pseudoprime_to_all_witnesses_raises(self):
        # 399165290221 * 798330580441 passes Miller-Rabin for every base 2..37
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441 == factorlab._MR_LIMIT
        for m in (n, sympy.nextprime(n)):
            with pytest.raises(OverflowError):
                is_prime(m)
        with pytest.raises(OverflowError):
            factorize(n)

    def test_composite_answers_past_the_limit_stand(self):
        for m in (factorlab._MR_LIMIT + 1, factorlab._MR_LIMIT + 2, 10**30, 10**30 + 1):
            assert is_prime(m) is False, m
        p, q = sympy.prevprime(10**12), sympy.nextprime(10**12)
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_agrees_with_sympy_past_64_bits(self):
        rng = random.Random(20240601)
        for _ in range(300):
            n = rng.randrange(2**64, factorlab._MR_LIMIT) | 1
            assert is_prime(n) == sympy.isprime(n), n
        assert is_prime(factorlab._MR_LIMIT - 2) == sympy.isprime(factorlab._MR_LIMIT - 2)


def _strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: whether odd n > 2 passes base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# OEIS A014233(k), k = 1..12: the least strong pseudoprime to the first k primes
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461,
)
A014233_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def a014233_is_prime(n: int) -> bool:
    """The oracle: trial division by 2..37, then the first k primes as bases,
    exact below A014233(k) (Jaeschke, 1993).  It shares no table with is_prime
    below 2^64, unlike sympy's isprime, which uses the same tiers."""
    if n < 2:
        return False
    for p in A014233_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    for a, bound in zip(A014233_WITNESSES, A014233):
        if not _strong_probable_prime(n, a):
            return False
        if n < bound:
            return True
    raise OverflowError(n)


_TIERS = [  # (lo, hi, bases): the bases decide every n in [lo, hi)
    (lo, hi, bases) for (lo, _), (hi, bases) in zip(factorlab._MR_TIERS, factorlab._MR_TIERS[1:])
]
# the bounds of sympy's isprime rows (sympy 1.14, step 2); is_prime folds
# its one base below 341531 and its 3- to 6-base sets into the hashed base
# and Sinclair's set, and the range of every row stays under test
_SYMPY_BOUNDS = (
    53 * 53, 341531, 4296595241, 350269456337, 55245642489451, 7999252175582851,
    585226005592931977, 2**64, A014233[-1],
)
_ROWS = list(itertools.pairwise(_SYMPY_BOUNDS))
_BANDS = sorted(
    {(lo, hi) for lo, hi in zip((41 * 41, *A014233), A014233) if lo < hi}
    | {(lo, hi) for lo, hi, _ in _TIERS}
    | set(_ROWS)
)

# the tiers with a base at or above their lower bound, and those bases
_LARGE_BASES = [(lo, hi, tuple(a for a in bases if a >= lo)) for lo, hi, bases in _TIERS]
_LARGE_BASES = [t for t in _LARGE_BASES if t[2]]


def _check_against_oracles(n: int) -> None:
    if n >= factorlab._MR_LIMIT and (n == factorlab._MR_LIMIT or sympy.isprime(n)):
        with pytest.raises(OverflowError):
            is_prime(n)
    else:
        assert is_prime(n) == sympy.isprime(n), n
        if n < factorlab._MR_LIMIT:
            assert is_prime(n) == a014233_is_prime(n), n


class TestWitnessSchedule:
    def test_each_value_is_a_strong_pseudoprime_to_its_prefix(self):
        for k, n in enumerate(A014233, 1):
            assert not sympy.isprime(n), n
            assert all(_strong_probable_prime(n, a) for a in A014233_WITNESSES[:k]), k

    def test_tier_bounds(self):
        # the hashed base (Forisek and Jancina), Jim Sinclair's seven bases
        # (miller-rabin.appspot.com) and the primes 2..37 up to A014233(12)
        assert [bound for bound, _ in factorlab._MR_TIERS] == [
            53 * 53, 4296595241, 2**64, A014233[-1],
        ]
        assert factorlab._MR_LIMIT == A014233[-1]
        assert factorlab._MR_TIERS[-1][1] == A014233_WITNESSES
        assert [len(bases) for _, bases in factorlab._MR_TIERS] == [0, 256, 7, 12]
        # every base of every tier: no test input is known to fail a set short of one base
        digest = hashlib.sha256(repr(factorlab._MR_TIERS).encode()).hexdigest()
        assert digest == "7e3a921c60c827cbe65bd49ce9c2fbb00b635afe628fa45b9afaa9a13e056857"

    def test_hashed_base_table(self):
        # Forisek and Jancina (2015), as sympy/ntheory/primetest.py copies it
        digest = hashlib.sha256(",".join(map(str, factorlab._MR_BASES_32)).encode()).hexdigest()
        assert digest == "3be1940d44befaf6e36abef6570e1220ba84ad741de524bbfb19e8b97257364e"

    @pytest.mark.parametrize("k", range(1, 12))
    def test_pseudoprime_to_the_first_k_bases_is_composite(self, k):
        assert is_prime(A014233[k - 1]) is False

    @pytest.mark.parametrize(
        "bound",
        sorted({41 * 41, *A014233, *_SYMPY_BOUNDS} | {bound for bound, _ in factorlab._MR_TIERS}),
    )
    def test_agrees_with_sympy_around_each_bound(self, bound):
        for n in range(bound - 200, bound + 201):
            _check_against_oracles(n)

    @pytest.mark.parametrize("lo, hi", _BANDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_agrees_with_sympy_within_each_witness_band(self, lo, hi, data):
        n = data.draw(st.integers(lo, hi - 1), label="n")
        _check_against_oracles(n)
        p = sympy.nextprime(n)
        if p < hi:
            assert is_prime(p)

    @pytest.mark.parametrize(
        "lo, hi, bases", _LARGE_BASES, ids=[f"{lo}-{hi}" for lo, hi, _ in _LARGE_BASES]
    )
    def test_divisors_of_each_large_base_and_its_neighbours(self, lo, hi, bases):
        # A base that n divides reduces to 0 and is skipped, one that is 1 mod
        # n is skipped, and one that is -1 mod n passes every n: inside the
        # tier the other bases must decide.  A multiple of a prime factor of a
        # base shares that factor with it, so the base alone proves it composite.
        checked = 0
        for a in bases:
            for m in (a - 1, a, a + 1):
                for n in sympy.divisors(m):
                    if lo <= n < hi:
                        _check_against_oracles(n)
                        checked += 1
            for p in sympy.primefactors(a):
                for q in (p, *sympy.primerange(53, 200)):
                    if lo <= p * q < hi:
                        _check_against_oracles(p * q)
                        checked += 1
        assert checked > 0

    @pytest.mark.parametrize("lo, hi", _ROWS)
    def test_chernick_carmichael_numbers_are_composite(self, lo, hi):
        # (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael number,
        # a Fermat pseudoprime to every coprime base: up to five in the range
        k = max(1, round((lo / 1296) ** (1 / 3)) - 1)
        found = []
        while len(found) < 5 and (6 * k + 1) ** 3 < hi:
            f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if lo <= math.prod(f) < hi and all(sympy.isprime(p) for p in f):
                found.append(math.prod(f))
            k += 1
        assert found
        for n in found:
            assert is_prime(n) is False, n

    @pytest.mark.parametrize("lo, hi", _ROWS)
    def test_monier_semiprimes_are_composite(self, lo, hi):
        # (2k+1)(4k+1) with both factors prime and k odd fools a quarter of
        # all bases, the most any odd composite can (Monier 1980): one base
        # used past its bound calls some of the first 50 in the range prime
        p = 2 * (math.isqrt(lo // 8) | 1) + 1  # p = 2k+1 with k odd, p(2p-1) near lo
        found = []
        while len(found) < 50 and p * (2 * p - 1) < hi:
            if p * (2 * p - 1) >= lo and sympy.isprime(p) and sympy.isprime(2 * p - 1):
                found.append(p * (2 * p - 1))
            p += 4
        assert found
        for n in found:
            assert is_prime(n) is False, n


class TestFactorize:
    def test_table_one_row(self):
        f = factorize(2500550027)
        assert f.factors == ((29, 1), (2731, 1), (31573, 1))
        assert str(f) == "29*2731*31573"

    def test_arm_b3_first_composite(self):
        assert factorize(377).factors == ((13, 1), (29, 1))

    def test_prime_cube(self):
        f = factorize(4913)
        assert f.factors == ((17, 3),)
        assert str(f) == "17^3"

    def test_recomposes(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(2, 10**12)
            f = factorize(n)
            prod = 1
            for p, e in f.factors:
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_deterministic(self):
        n = 2780222773 * 2500550027
        assert factorize(n) == factorize(n)

    def test_rho_gives_up_after_its_budget(self, monkeypatch):
        n = sympy.nextprime(10**12) * sympy.nextprime(2 * 10**12)  # ~2e24, balanced
        monkeypatch.setattr(factorlab, "_RHO_BUDGET", 1 << 10)
        with pytest.raises(ArithmeticError, match=f"no factor of {n} in 1024 steps"):
            factorlab._pollard_brent([n])
        with pytest.raises(ArithmeticError, match=str(n)):
            factorize(n)

    def test_rho_budget_is_per_cofactor(self, monkeypatch):
        # 1009 * 1013 splits well inside the budget and leaves the walk; the
        # other member walks on alone and raises, in either order
        n = sympy.nextprime(10**12) * sympy.nextprime(2 * 10**12)
        m = sympy.nextprime(3 * 10**12) * sympy.nextprime(4 * 10**12)
        monkeypatch.setattr(factorlab, "_RHO_BUDGET", 1 << 10)
        assert _oracle_pollard_brent(1009 * 1013) in (1009, 1013)
        for batch in ([1009 * 1013, n], [n, 1009 * 1013]):
            with pytest.raises(ArithmeticError, match=f"no factor of {n} in 1024 steps"):
                factorlab._pollard_brent(batch)
        # of two that both run out, the first given is named
        for first, second in ((n, m), (m, n)):
            with pytest.raises(ArithmeticError, match=f"no factor of {first} in"):
                factorlab._pollard_brent([1009 * 1013, first, second])

    def test_rho_budget_is_far_above_64_bit_needs(self, monkeypatch):
        # the deepest splits below 2^63, two primes near 2^31.5, fit in 1/64 of it
        monkeypatch.setattr(factorlab, "_RHO_BUDGET", factorlab._RHO_BUDGET // 64)
        rng = random.Random(3)
        for _ in range(5):
            p, q = (sympy.nextprime(rng.randint(2 * 10**9, 3 * 10**9)) for _ in range(2))
            assert math.prod(f**e for f, e in factorize(p * q).factors) == p * q

    def test_domain(self):
        with pytest.raises(ValueError):
            factorize(1)


def _oracle_pollard_brent(n: int, paths: collections.Counter | None = None) -> int:
    """The single-n Brent walk that factorlab._pollard_brent batches, as it
    stood before the batching.  paths, when given, counts how often a block
    gcd hits n ("backtrack") and the backtrack hits n again ("next c")."""
    paths = collections.Counter() if paths is None else paths
    steps = 0
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # this round walks y at most 2r steps
            if steps > factorlab._RHO_BUDGET:
                raise ArithmeticError(f"Pollard rho found no factor of {n}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # a sign changes no gcd with n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            paths["backtrack"] += 1
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        paths["next c"] += 1
    raise ArithmeticError(f"rho failed to split {n}")


# primes of 11 to 32 bits, and small odd primes whose products often make a
# block gcd take every factor of n at once
_RHO_PRIMES = st.integers(1 << 10, (1 << 32) - 6).map(sympy.nextprime)
_SMALL_ODD_PRIMES = st.sampled_from(list(sympy.primerange(3, 60)))


@st.composite
def _rho_batches(draw) -> list[int]:
    """Odd composites of 2 or 3 primes from one shared pool, so members share
    primes, repeat a prime (squares, cubes) or repeat whole; and at times a
    member times a pool prime, which that member divides."""
    pool = draw(st.lists(st.one_of(_RHO_PRIMES, _SMALL_ODD_PRIMES), min_size=1, max_size=5))
    members = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=2, max_size=3).map(math.prod),
        min_size=1, max_size=8,
    ))
    if draw(st.booleans()):
        members.append(draw(st.sampled_from(members)) * draw(st.sampled_from(pool)))
    if draw(st.booleans()):
        members.append(draw(st.sampled_from(members)))
    return draw(st.permutations(members))


class TestBatchedRho:
    @settings(max_examples=40, deadline=None)
    @given(batch=_rho_batches())
    @example(batch=[15, 21, 25, 27, 45, 49, 15])
    @example(batch=[1031 * 1033, 1031 * 1039, 1031**2, 1031**2 * 1033])
    def test_each_member_gets_the_single_walk_factor(self, batch):
        assert factorlab._pollard_brent(batch) == [_oracle_pollard_brent(n) for n in batch]

    def test_small_odd_composites_with_backtrack_and_next_c(self):
        # below 3000, block gcds often take all of n: both fallbacks run
        batch = [n for n in range(9, 3000, 2) if not is_prime(n)]
        paths: collections.Counter = collections.Counter()
        expected = [_oracle_pollard_brent(n, paths) for n in batch]
        assert paths["backtrack"] > paths["next c"] > 0
        assert factorlab._pollard_brent(batch) == expected
        assert factorlab._pollard_brent(batch[::-1]) == expected[::-1]

    def test_batches_past_the_cap(self, monkeypatch):
        # with a cap of two, the four distinct members walk in two groups
        monkeypatch.setattr(factorlab, "_RHO_BATCH", 2)
        batch = [15, 1031 * 1033, 49, 2021, 15]
        assert factorlab._pollard_brent(batch) == [_oracle_pollard_brent(n) for n in batch]

    def test_no_cofactors(self):
        assert factorlab._pollard_brent([]) == []

    @pytest.mark.parametrize("poly", [B3, Q3, G1], ids=["B3", "Q3", "G1"])
    def test_density_scan_near_the_limit_is_per_value_factorize(self, poly):
        # three 45-term windows ending within 10^6 indices of the 2^63 limit
        last = math.isqrt(VALUE_LIMIT // poly.a)  # then the largest x with poly(x) <= 2^63
        while poly(last + 1) <= VALUE_LIMIT:
            last += 1
        while poly(last) > VALUE_LIMIT:
            last -= 1
        rng = random.Random(poly.c)
        for _ in range(3):
            x1 = last + 1 - rng.randrange(10**6)
            records = density_scan(poly, x1 - 45, x1).records
            for rec in records:
                assert rec.value == poly(rec.x)
                assert rec.prime == is_prime(rec.value)
                assert rec.factorization == (None if rec.prime else factorize(rec.value))


class TestModSqrt:
    def test_round_trip(self):
        rng = random.Random(9)
        for p in (10007, 100003, 2500250003):
            for _ in range(20):
                x = rng.randrange(p)
                r = _mod_sqrt(x * x % p, p)
                assert r is not None and r * r % p == x * x % p

    def test_non_residue(self):
        assert _mod_sqrt(5, 10007) is None or pow(5, 5003, 10007) == 1

    def test_mod_2_is_the_residue(self):
        for a in range(-4, 5):
            assert _mod_sqrt(a, 2) == a % 2


class TestRootClasses:
    def test_b3_mod_13_single_class(self):
        rc = root_classes(B3, 13)
        assert rc.roots == (6,)
        assert rc.gaps == (13,)

    def test_b3_mod_23_split_gaps(self):
        rc = root_classes(B3, 23)
        assert rc.roots == (10, 12)
        assert rc.gaps == (2, 21)

    def test_b3_mod_7_empty(self):
        assert root_classes(B3, 7).roots == ()

    def test_q3_mod_11_linear_case(self):
        rc = root_classes(Q3, 11)
        assert len(rc.roots) == 1
        assert rc.gaps == (11,)

    def test_brute_force_agreement_small(self):
        # roots at the last two residues (1,3,2), one double root at q-1
        # (1,2,1) and at 5 (1,-10,25), roots 0 and 1 (1,-1,0), a negative a
        # for the Vieta step's inverse (-3,5,7); q | a goes to _solve: every
        # residue mod 2, 3 and 5 (30,60,90), none mod 7, 11 and 13 (1001,2002,3)
        edges = (
            QuadPoly(1, 3, 2),
            QuadPoly(1, 2, 1),
            QuadPoly(1, -10, 25),
            QuadPoly(1, -1, 0),
            QuadPoly(-3, 5, 7),
            QuadPoly(30, 60, 90),
            QuadPoly(1001, 2002, 3),
        )
        for poly in (A3, B3, Q3, S1, K5, B33, G1, *edges):
            for q in primes_up_to(500):
                rc = root_classes(poly, q)
                assert list(rc.roots) == brute_roots(poly, q), (poly, q)

    def test_p41a_gap_pair_14_27(self):
        # the Euler-split arm recurs with prime factor 41 in the 14/27 pattern
        rc = root_classes(QuadPoly(9, -15, 47), 41)
        assert rc.gaps == (14, 27)
        t = np.arange(410, dtype=np.int64)
        hits = np.nonzero((9 * t * t - 15 * t + 47) % 41 == 0)[0]
        assert set(np.diff(hits).tolist()) == {14, 27}

    def test_tonelli_branch_matches_brute(self):
        # 10007t^2 + 9t - 1 is linear mod 10007; 10007(t^2 + 2t + 3) vanishes there
        for poly in (B3, QuadPoly(10007, 9, -1), QuadPoly(10007, 20014, 30021)):
            for q in (10007, 10037, 100003):
                rc = root_classes(poly, q)
                t = np.arange(q, dtype=np.int64)
                brute = np.nonzero((poly.a * t * t + poly.b * t + poly.c) % q == 0)[0].tolist()
                assert list(rc.roots) == brute, (poly, q)
        assert root_classes(QuadPoly(10007, 9, -1), 10007).gaps == (10007,)
        assert root_classes(QuadPoly(10007, 20014, 30021), 10007).gaps == (1,)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(-(2**63), 2**63),
        b=st.integers(-(2**63), 2**63),
        c=st.integers(-(2**63), 2**63),
        q=st.sampled_from([q for q in primes_up_to(9_999) if q >= 500]),
    )
    @example(a=0, b=0, c=0, q=503)  # every residue is a root
    @example(a=0, b=7, c=3, q=509)  # linear
    @example(a=521 * 3, b=5, c=-2, q=521)  # q | a: linear
    @example(a=1, b=0, c=-4, q=9_973)  # two roots at the top of the scan range
    @example(a=1, b=3, c=2, q=9_973)  # roots q-2 and q-1, the last two residues
    @example(a=1, b=2, c=1, q=9_973)  # one double root at q-1
    @example(a=1, b=-1, c=0, q=9_973)  # roots 0 and 1, the first two residues
    @example(a=-3, b=5, c=7, q=9_973)  # negative a: Vieta inverts it
    @example(a=1, b=-10, c=25, q=9_973)  # one double root at 5
    def test_scan_matches_solve_below_10000(self, a, b, c, q):
        # the scan serves q < 10 000 with q not dividing a, and _solve the rest;
        # here they must agree, and with a search over every residue
        poly = QuadPoly(a, b, c)
        a, b, c = a % q, b % q, c % q
        brute = tuple(t for t in range(q) if (a * t * t + b * t + c) % q == 0)
        assert tuple(root_classes(poly, q).roots) == tuple(factorlab._solve(poly, q)) == brute

    def test_requires_prime(self):
        # 10007 * 10009 is a composite past the scan range, where _mod_sqrt would run
        for q in (9, 10, 15, 10007 * 10009):
            with pytest.raises(ValueError, match="q must be prime"):
                root_classes(B3, q)

    def test_gap_sum_law_random(self):
        rng = random.Random(77)
        primes = primes_up_to(1000)
        for _ in range(200):
            p = QuadPoly(rng.randint(1, 30), rng.randint(-99, 99), rng.randint(-99, 99))
            q = rng.choice(primes)
            rc = root_classes(p, q)
            if len(rc.roots) == 1:
                assert rc.gaps == (q,)
            elif len(rc.roots) == 2:
                assert sum(rc.gaps) == q

    def test_occurrence_gaps_match_scan(self):
        rng = random.Random(13)
        primes = [q for q in primes_up_to(400) if q >= 5]
        for _ in range(50):
            p = QuadPoly(rng.randint(1, 15), rng.randint(-60, 60), rng.randint(-60, 60))
            q = rng.choice(primes)
            rc = root_classes(p, q)
            t = np.arange(10 * q, dtype=np.int64)
            hits = np.nonzero((p.a * t * t + p.b * t + p.c) % q == 0)[0]
            if len(rc.roots) in (1, 2) and len(hits) > 1:
                observed = set(np.diff(hits).tolist())
                assert observed == set(rc.gaps)


class TestAdmissiblePrimes:
    def test_b3_exact_set(self):
        assert admissible_primes(B3, 61).primes == (13, 17, 23, 29, 43, 53, 61)

    def test_k5_exact_set(self):
        assert admissible_primes(K5, 37).primes == (7, 11, 13, 17, 29, 37)

    def test_q3_honest_set_includes_83(self):
        # The published list for Q3 reads 11, 13, 31, 37, 73, 89, ... but 83
        # is admissible too: 83 * 101 = 8383 appears in the source's own
        # spot-check table.  The brute-force oracle is authoritative here.
        got = admissible_primes(Q3, 89).primes
        assert got == (11, 13, 31, 37, 73, 83, 89)
        assert Q3(29) == 8383 == 83 * 101

    def test_matches_brute_force(self):
        # the literals cover q = 2 with a odd and even, q | a, and q | a, b, c
        literals = [QuadPoly(*abc) for abc in ((0, 0, 0), (6, 6, 6), (2, 0, 0), (3, 0, 7),
                                                (0, 3, 5), (0, 0, 5))]
        for poly in (B3, Q3, K5, S1, B33, G1, *literals):
            expected = tuple(q for q in primes_up_to(300) if brute_roots(poly, q))
            assert admissible_primes(poly, 300).primes == expected

    def test_matches_brute_force_for_every_fixture_arm(self):
        fx = load_fixtures()
        primes = primes_up_to(500)
        for system in fx.systems + fx.extras:
            for arm in system.arms:
                p = arm.poly
                got = set(admissible_primes(p, 500).primes)
                for q in primes:
                    t = np.arange(q, dtype=np.int64)
                    has_root = bool(np.any((p.a * t * t + p.b * t + p.c) % q == 0))
                    assert (q in got) == has_root, (system.name, arm.name, q)


class TestSameSplitting:
    def test_q3_s1_identical(self):
        comp = same_splitting(Q3, S1, 100)
        assert comp.equal and comp.witness is None

    def test_b3_b33_differ_at_11(self):
        comp = same_splitting(B3, B33, 100)
        assert not comp.equal
        assert comp.witness == 11

    def test_reflexive(self):
        assert same_splitting(Q3, Q3, 50).equal

    def test_admissibility_alone_differs_at_3(self):
        # both have the one root 1 mod 2; mod 3 only x^2 - 1 has roots
        assert same_splitting(QuadPoly(1, 0, -1), QuadPoly(1, 0, 1), 10) == (False, 3)

    @settings(max_examples=100, deadline=None)
    @given(pair=SAME_FORM_PAIRS, bound=st.integers(2, 2_000))
    @example(pair=(QuadPoly(9, -15, 13), QuadPoly(11, -11, 11)), bound=2_000)  # A6/R2
    @example(pair=(QuadPoly(9, -21, 19), QuadPoly(11, -11, 11)), bound=2_000)  # C8/R2
    @example(pair=(Q3, S1), bound=2_000)
    def test_same_form_differs_only_at_primes_dividing_m(self, pair, bound):
        # when D*a'^2 = D'*a^2, f and g have the same gaps at every prime q not
        # dividing m = 2*a*a'*D*D', so the loop's verdict is read at those q alone
        f, g = pair
        assert f.discriminant * g.a**2 == g.discriminant * f.a**2
        m = 2 * f.a * g.a * f.discriminant * g.discriminant
        differ = [
            q for q in primes_up_to(bound)
            if m % q == 0 and root_classes(f, q).gaps != root_classes(g, q).gaps
        ]
        assert same_splitting(f, g, bound) == ((False, differ[0]) if differ else (True, None))


class TestDensityScan:
    def test_empty_window(self):
        rep = density_scan(B3, 5, 5)
        assert rep.records == ()
        assert rep.prime_share == 0.0

    def test_b3_start_window_share(self):
        rep = density_scan(B3, 1, 26)
        assert rep.prime_count == 18
        assert 0.70 <= rep.prime_share <= 0.75
        assert rep.coprime_share == 1.0

    def test_coprime_share_counts_values_prime_to_30(self):
        # x^2 is prime to 30 exactly when x is: 8 of every 30 consecutive x
        rep = density_scan(QuadPoly(1, 0, 0), 1, 31)
        assert rep.coprime_share == 8 / 30

    def test_b3_table_window(self):
        rep = density_scan(B3, 16667, 16675)
        assert rep.records[0].value == 2500250003 and rep.records[0].prime
        assert rep.records[1].value == 2500550027
        assert str(rep.records[1].factorization) == "29*2731*31573"

    def test_range_guard(self):
        with pytest.raises(OverflowError):
            density_scan(B3, 1, 2 * 10**9)


class TestDetectArmChain:
    def test_seed_17_returns_arm_b3(self):
        chain = detect_arm_chain(17, 18, 6)
        assert chain.values == (17, 53, 107, 179, 269, 377)
        assert chain.delta1 == 36
        assert all(abs(d) < 0.3 for d in chain.drifts)

    def test_seed_11_has_arm_a3_among_candidates(self):
        chain = detect_arm_chain(11, 18, 5)
        assert (11, 41, 89, 155, 239) in {c.values for c in chain.candidates}

    def test_seed_7_finds_fixture_arm_f1(self):
        chain = detect_arm_chain(7, 20, 5)
        assert chain.values == (7, 33, 79, 145, 231)  # arm N20-F/F1

    def test_seed_13_has_k5_among_candidates(self):
        chain = detect_arm_chain(13, 22, 6)
        assert (13, 49, 107, 187, 289, 413) in {c.values for c in chain.candidates}

    def test_candidates_sorted_by_score(self):
        chain = detect_arm_chain(17, 18, 4)
        scores = [c.score for c in chain.candidates]
        assert scores == sorted(scores)
        best = chain.candidates[0]
        assert (best.delta1, best.values) == (chain.delta1, chain.values)

    def test_drifts_match_angle_oracle(self):
        chain = detect_arm_chain(17, 18, 4)
        for i, drift in enumerate(chain.drifts):
            oracle = spiral.angle_between(chain.values[i], chain.values[i + 1]) - 2 * math.pi
            assert drift == pytest.approx(oracle, abs=1e-12)

    def test_every_candidate_is_exact_for_zero_and_negative_d2(self):
        # far from the origin a step bends so little that d2 = 0 and -4 chains
        # stay within a quarter wind; each candidate is the running sum of its steps
        for d2 in (0, -4):
            for c in detect_arm_chain(10**6, d2, 12).candidates:
                v = c.values
                assert len(v) == 12 and v[1] - v[0] == c.delta1
                assert all(v[i + 2] - 2 * v[i + 1] + v[i] == d2 for i in range(10))

    def test_not_found_when_d2_cannot_keep_one_wind_per_step(self):
        # a second difference of 200 forces ~3 winds per step, so every
        # candidate blows through the quarter-wind drift budget
        with pytest.raises(ChainNotFoundError):
            detect_arm_chain(11, 200, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(2, 3 * 10**6),
        d2=st.sampled_from((18, 20, 22)),
        length=st.integers(2, 60),
    )
    def test_drifts_are_the_oracle_angles_of_the_chain(self, seed, d2, length):
        chain = detect_arm_chain(seed, d2, length)
        v = chain.values
        assert len(v) == length and len(chain.drifts) == length - 1
        assert v[1] - v[0] == chain.delta1
        assert all(v[i + 2] - 2 * v[i + 1] + v[i] == d2 for i in range(length - 2))
        for i, drift in enumerate(chain.drifts):
            assert drift == spiral.angle_between(v[i], v[i + 1]) - spiral.TWO_PI

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(2, 10**9), d2=st.sampled_from((18, 20, 22, 200)))
    @example(seed=10**9, d2=18)
    @example(seed=940_781, d2=200)
    def test_candidate_scores_are_the_oracle_angles(self, seed, d2):
        # every even first step within 15 of one wind, scored on its own by
        # streamed sums; detect ranks by the closed form, so the candidates
        # and their order must be the same and the scores agree to 4e-14
        base = 2 * math.pi * math.sqrt(seed)
        expected = []
        for delta1 in range(max(2, math.ceil(base - 15)), math.floor(base + 15) + 1):
            if delta1 % 2:
                continue
            v = tuple(seed + i * delta1 + d2 * i * (i - 1) // 2 for i in range(11))
            drifts = [spiral.angle_between(v[i], v[i + 1]) - spiral.TWO_PI for i in range(10)]
            score = max(abs(d) for d in drifts)
            if score < math.pi / 2:
                expected.append((score, delta1, v))
        expected.sort()
        try:
            chain = detect_arm_chain(seed, d2, 11)
        except ChainNotFoundError:
            assert expected == []
            return
        assert [(c.delta1, c.values) for c in chain.candidates] == [e[1:] for e in expected]
        for c, (score, _, _) in zip(chain.candidates, expected):
            assert abs(c.score - score) <= 4e-14

    # Below ~9.4e5 every first step of a d2 = 200 chain drifts past a quarter
    # wind within the ten scored steps; further out the per-step bend
    # d2/sqrt(n) is smaller and the drift grows past it only later in the chain.
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(2, 5 * 10**5), length=st.integers(2, 60))
    def test_not_found_at_d2_200(self, seed, length):
        with pytest.raises(ChainNotFoundError):
            detect_arm_chain(seed, 200, length)

    def test_not_found_at_d2_200_past_a_million(self):
        with pytest.raises(ChainNotFoundError, match="past a quarter wind"):
            detect_arm_chain(10**6, 200, 20)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(2, 3 * 10**6),
        d2=st.sampled_from((18, 20, 22, 200)),
        length=st.integers(2, 60),
    )
    def test_returned_drifts_stay_within_a_quarter_wind(self, seed, d2, length):
        try:
            chain = detect_arm_chain(seed, d2, length)
        except ChainNotFoundError:
            assert d2 == 200  # a one-wind chain exists for d2 near 2*pi^2
            return
        assert all(abs(d) < math.pi / 2 for d in chain.drifts)


def test_k5_intersection_table_pins():
    fx = load_fixtures()
    assert {(r.x, r.value) for r in fx.k5_factors} >= {(2, 49), (4, 187), (5, 289)}
    for ref in fx.k5_factors:
        assert K5(ref.x) == ref.value
        assert str(factorize(ref.value)) == ref.factors


def test_asymptotic_step_angle_of_chain():
    # per-step angle of a d2-chain approaches sqrt(2*d2); quick version at
    # t = 1000 (the acceptance suite pins t = 1e4 at 1e-3)
    t = 1000
    n1, n2 = A3(t), A3(t + 1)
    assert spiral.angle_between(n1, n2) == pytest.approx(6.0, abs=3e-2)
