"""Primality, factorization, root classes, density scans, chain detection."""

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
    admissible_primes,
    density_scan,
    detect_arm_chain,
    factorize,
    is_prime,
    mod_sqrt,
    primes_up_to,
    root_classes,
    same_splitting,
)
from rootspiral.fixtures import load_fixtures
from rootspiral.quad import QuadPoly

A3 = QuadPoly(9, 3, -1)
B3 = QuadPoly(9, 9, -1)
Q3 = QuadPoly(11, -31, 31)
S1 = QuadPoly(11, -13, 13)
K5 = QuadPoly(11, 3, -1)
B33 = QuadPoly(9, -9, 89)
G1 = QuadPoly(10, -20, 23)


def brute_roots(p: QuadPoly, q: int) -> list[int]:
    return sorted(t for t in range(q) if p(t) % q == 0)


class TestIsPrime:
    def test_table_one_value(self):
        assert is_prime(2500250003)

    def test_composite_989(self):
        assert not is_prime(989)

    def test_one(self):
        assert not is_prime(1)

    def test_against_sieve(self):
        flags = set(primes_up_to(20000))
        for n in range(1, 20000):
            assert is_prime(n) == (n in flags)

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
            factorlab._pollard_brent(n)
        with pytest.raises(ArithmeticError, match=str(n)):
            factorize(n)

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


class TestModSqrt:
    def test_round_trip(self):
        rng = random.Random(9)
        for p in (10007, 100003, 2500250003):
            for _ in range(20):
                x = rng.randrange(p)
                r = mod_sqrt(x * x % p, p)
                assert r is not None and r * r % p == x * x % p

    def test_non_residue(self):
        assert mod_sqrt(5, 10007) is None or pow(5, 5003, 10007) == 1


class TestRootClasses:
    def test_b3_mod_13_single_class(self):
        rc = root_classes(B3, 13)
        assert rc.roots == frozenset({6})
        assert rc.gaps == (13,)

    def test_b3_mod_23_split_gaps(self):
        rc = root_classes(B3, 23)
        assert rc.roots == frozenset({10, 12})
        assert rc.gaps == (2, 21)

    def test_b3_mod_7_empty(self):
        assert root_classes(B3, 7).roots == frozenset()

    def test_q3_mod_11_linear_case(self):
        rc = root_classes(Q3, 11)
        assert len(rc.roots) == 1
        assert rc.gaps == (11,)

    def test_brute_force_agreement_small(self):
        for poly in (A3, B3, Q3, S1, K5, B33, G1):
            for q in primes_up_to(500):
                rc = root_classes(poly, q)
                assert sorted(rc.roots) == brute_roots(poly, q), (poly, q)

    def test_p41a_gap_pair_14_27(self):
        # the Euler-split arm recurs with prime factor 41 in the 14/27 pattern
        rc = root_classes(QuadPoly(9, -15, 47), 41)
        assert rc.gaps == (14, 27)
        t = np.arange(410, dtype=np.int64)
        hits = np.nonzero((9 * t * t - 15 * t + 47) % 41 == 0)[0]
        assert set(np.diff(hits).tolist()) == {14, 27}

    def test_tonelli_branch_matches_brute(self):
        for q in (10007, 10037, 100003):
            rc = root_classes(B3, q)
            t = np.arange(q, dtype=np.int64)
            brute = np.nonzero((9 * t * t + 9 * t - 1) % q == 0)[0].tolist()
            assert sorted(rc.roots) == brute

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            root_classes(B3, 10)

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
        for poly in (B3, Q3, K5, S1, B33, G1):
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

    def test_discriminant_recorded(self):
        assert admissible_primes(Q3, 10).discriminant == -403


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

    def test_drifts_match_angle_oracle(self):
        chain = detect_arm_chain(17, 18, 4)
        for i, drift in enumerate(chain.drifts):
            oracle = spiral.angle_between(chain.values[i], chain.values[i + 1]) - 2 * math.pi
            assert drift == pytest.approx(oracle, abs=1e-12)

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
        # every even first step within 15 of one wind, scored on its own
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
        assert [(c.score, c.delta1, c.values) for c in chain.candidates] == expected

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
