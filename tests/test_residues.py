"""Residue cycles, number endings, digit sums, mod-6 classes."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootspiral.fixtures import load_fixtures
from rootspiral.quad import QuadPoly
from rootspiral.residues import (
    ENDING_PERIODS,
    digit_sum,
    digit_sum_gaps,
    divisibility_positions,
    residue_cycle,
    six_classify,
)

A3 = QuadPoly(9, 3, -1)
B3 = QuadPoly(9, 9, -1)
Q3 = QuadPoly(11, -31, 31)
D8_FAMILY = QuadPoly(10, 50, 67)
N20_D1 = QuadPoly(10, -10, 7)
K3 = QuadPoly(11, -19, 13)


class TestResidueCycle:
    def test_a3_paper_ending_cycle(self):
        cycle = residue_cycle(A3, 10)
        assert len(cycle) == 5
        assert cycle in _rotations((9, 1, 1, 9, 5))

    def test_d8_family_constant_ending_seven(self):
        assert residue_cycle(D8_FAMILY, 10) == (7,)

    def test_q3_paper_ending_cycle(self):
        cycle = residue_cycle(Q3, 10)
        assert set(cycle) == {1, 3, 7}
        assert cycle in _rotations((3, 1, 1, 3, 7))

    def test_cycle_reproduces_stream(self):
        cycle = residue_cycle(B3, 12)
        for i in range(60):
            assert B3(1 + i) % 12 == cycle[i % len(cycle)]

    def test_period_divides_k_random(self):
        rng = random.Random(42)
        for _ in range(2000):
            p = QuadPoly(rng.randint(-30, 30), rng.randint(-99, 99), rng.randint(-99, 99))
            k = rng.randint(2, 100)
            assert k % len(residue_cycle(p, k)) == 0

    def test_modulus_domain(self):
        with pytest.raises(ValueError):
            residue_cycle(A3, 0)


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(11) == 2
        assert digit_sum(89) == 17
        assert digit_sum(0) == 0

    def test_congruent_mod_nine(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(0, 10**12)
            assert digit_sum(n) % 9 == n % 9


def _rotations(cycle):
    return {tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))}


def _ordered_digit_sums(p, terms=25):
    """The distinct digit sums of f(1 .. terms) in order, as the residues command lists them."""
    return sorted({digit_sum(p(t)) for t in range(1, terms + 1)})


def _gap_table(a, b):
    """The digit-sum gap cycle by completing the square (see README)."""
    if a % 3:
        return (1, 3, 3, 2) if a % 3 == 1 else (1, 2, 3, 3)
    if b % 3:
        return (1,) * 9
    if a % 9:
        return (3, 6)
    return (3, 3, 3) if b % 9 else (9,)


class TestSdProfile:
    def test_a_family_step_three(self):
        a2 = QuadPoly(9, 3, -5)
        assert digit_sum_gaps(a2) == (3, 3, 3)
        assert _ordered_digit_sums(a2)[:4] == [7, 10, 13, 16]

    def test_b_family_step_nine(self):
        b1 = QuadPoly(9, 9, -7)
        assert digit_sum_gaps(b1) == (9,)
        assert _ordered_digit_sums(b1) == [2, 11, 20]

    def test_b3_step_nine(self):
        assert digit_sum_gaps(B3) == (9,)

    def test_d2_20_cycle(self):
        # the paper prints the same cycle as (3,3,2,1)
        assert digit_sum_gaps(N20_D1) == (1, 3, 3, 2)
        assert _ordered_digit_sums(N20_D1) == [7, 9, 10, 13, 16, 18, 19]

    def test_d2_22_cycle(self):
        assert digit_sum_gaps(K3) == (1, 2, 3, 3)

    def test_window_skip_is_classified(self):
        # N20-F3 and N22-L1 skip one digit sum inside the 25-term window,
        # which merges two gaps; the image mod 9 classifies them anyway.
        f3, l1 = QuadPoly(10, -4, -5), QuadPoly(11, -21, 23)
        for p, cycle in ((f3, (1, 3, 3, 2)), (l1, (1, 2, 3, 3))):
            ordered = _ordered_digit_sums(p)
            steps = [b - a for a, b in zip(ordered, ordered[1:])]
            assert all(steps != (list(rot) * 9)[: len(steps)] for rot in _rotations(cycle))
            assert digit_sum_gaps(p) == cycle

    @given(st.integers(), st.integers(), st.integers())
    def test_gaps_follow_completing_the_square(self, a, b, c):
        gaps = digit_sum_gaps(QuadPoly(a, b, c))
        assert sum(gaps) == 9
        assert gaps == min(_rotations(gaps))
        assert gaps == _gap_table(a, b)

    def test_every_digit_sum_of_the_image_occurs(self):
        # Independent of the mod-9 argument: the digit sums of the first 2000
        # terms in [10, 45] are exactly those whose class f hits mod 9, and
        # in order they step by the reported gaps.
        fx = load_fixtures()
        for system in fx.systems + fx.extras:
            for arm in system.arms:
                image = set(residue_cycle(arm.poly, 9))
                seen = {digit_sum(arm.poly(x)) for x in range(1, 2001)}
                window = sorted(s for s in seen if 10 <= s <= 45)
                assert window == [s for s in range(10, 46) if s % 9 in image], arm.name
                steps = [b - a for a, b in zip(window, window[1:])]
                gaps = digit_sum_gaps(arm.poly)
                n = len(gaps)
                assert tuple(steps[:n]) in _rotations(gaps), arm.name
                assert steps == (steps[:n] * 36)[: len(steps)], arm.name

    def test_split_by_second_difference(self):
        fx = load_fixtures()
        by_d2 = {}
        for system in fx.systems + fx.extras:
            for arm in system.arms:
                gaps = digit_sum_gaps(arm.poly)
                by_d2.setdefault(system.d2, []).append(gaps)
        assert sorted(by_d2) == [2, 18, 20, 22]
        assert sorted(by_d2[18]) == [(3, 3, 3)] * 26 + [(9,)] * 14
        assert by_d2[2] == [(1, 3, 3, 2)]  # the Euler arm
        assert set(by_d2[20]) == {(1, 3, 3, 2)} and len(by_d2[20]) == 36
        assert set(by_d2[22]) == {(1, 2, 3, 3)} and len(by_d2[22]) == 34

    def test_nine_divisible_lead_coefficient_cycles_shortly(self):
        fx = load_fixtures()
        for system in fx.systems:
            if system.d2 != 18:
                continue
            for arm in system.arms:
                assert len(residue_cycle(arm.poly, 9)) <= 3


class TestDivisibilityPositions:
    def test_a3_every_fifth_divisible_by_five(self):
        assert len(divisibility_positions(A3, 5)) == 1
        assert len(residue_cycle(A3, 5)) == 5

    def test_k2_every_third_divisible_by_three(self):
        k2 = QuadPoly(11, -19, 17)  # f(1) = 9
        assert divisibility_positions(k2, 3) == {1}
        assert len(residue_cycle(k2, 3)) == 3

    def test_arm_indices_match_brute_force(self):
        fx = load_fixtures()
        for system in fx.systems + fx.extras:
            for arm in system.arms:
                for k in (2, 3, 5):
                    period = len(residue_cycle(arm.poly, k))
                    want = {x for x in range(1, period + 1) if arm.poly(x) % k == 0}
                    assert divisibility_positions(arm.poly, k) == want, (arm.name, k)

    def test_b3_never_divisible_by_three(self):
        assert divisibility_positions(B3, 3) == frozenset()


class TestSixClassify:
    def test_examples(self):
        assert six_classify(11) == "SQ1"
        assert six_classify(13) == "SQ2"
        assert six_classify(9) == "Other"

    def test_all_primes_above_three(self):
        from rootspiral.factorlab import primes_up_to

        for p in primes_up_to(1000):
            if p > 3:
                assert six_classify(p) in ("SQ1", "SQ2")

    def test_sequences_from_paper(self):
        assert [n for n in range(1, 30) if six_classify(n) == "SQ1"] == [5, 11, 17, 23, 29]
        assert [n for n in range(1, 26) if six_classify(n) == "SQ2"] == [1, 7, 13, 19, 25]

    def test_arm_six_class_cycle(self):
        fx = load_fixtures()
        for system in fx.systems + fx.extras:
            for arm in system.arms:
                period = len(residue_cycle(arm.poly, 6))
                assert 6 % period == 0
                stream = [six_classify(arm.poly(t)) for t in range(1, 1 + 2 * period)]
                assert stream[:period] == stream[period:]


def test_all_fixture_arms_have_mod10_period_one_or_five():
    fx = load_fixtures()
    for system in fx.systems + fx.extras:
        for arm in system.arms:
            assert len(residue_cycle(arm.poly, 10)) in ENDING_PERIODS, f"{system.name}/{arm.name}"
