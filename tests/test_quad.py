"""Quadratic fitting: Newton fits, reindexing, arm systems."""

import random

import pytest

from rootspiral.quad import (
    NonIntegralError,
    VALUE_LIMIT,
    QuadPoly,
    decimate,
    newton_fit,
    shift,
)

A3 = QuadPoly(9, 3, -1)
B3 = QuadPoly(9, 9, -1)
Q3 = QuadPoly(11, -31, 31)
EULER = QuadPoly(1, 1, 41)


class TestNewtonFit:
    def test_arm_a3(self):
        assert newton_fit(1, (11, 41, 89)) == A3

    def test_arm_b3(self):
        assert newton_fit(1, (17, 53, 107)) == B3

    def test_euler_polynomial_two_origins(self):
        assert newton_fit(1, (41, 43, 47)) == QuadPoly(1, -1, 41)
        assert newton_fit(0, (41, 43, 47)) == EULER

    def test_half_integer_lead_rejected(self):
        with pytest.raises(NonIntegralError):
            newton_fit(1, (0, 1, 3))

    def test_round_trip_random(self):
        rng = random.Random(20260810)
        for _ in range(300):
            p = QuadPoly(
                rng.randint(-20, 20), rng.randint(-100, 100), rng.randint(-100, 100)
            )
            t0 = rng.randint(-50, 50)
            assert newton_fit(t0, [p(t0), p(t0 + 1), p(t0 + 2)]) == p

    def test_second_difference_is_2a(self):
        rng = random.Random(99)
        for _ in range(100):
            p = QuadPoly(rng.randint(-20, 20), rng.randint(-100, 100), rng.randint(-100, 100))
            vals = [p(x) for x in range(1, 11)]
            assert {vals[i + 2] - 2 * vals[i + 1] + vals[i] for i in range(8)} == {2 * p.a}


class TestShift:
    def test_arm_a3_second_fit(self):
        assert shift(A3, 1) == QuadPoly(9, 21, 11)

    def test_identity(self):
        assert shift(Q3, 0) == Q3

    def test_arm_q3_second_fit(self):
        assert shift(Q3, 1) == QuadPoly(11, -9, 11)

    def test_composition(self):
        rng = random.Random(3)
        for _ in range(50):
            p = QuadPoly(rng.randint(-9, 9), rng.randint(-50, 50), rng.randint(-50, 50))
            s, t = rng.randint(-10, 10), rng.randint(-10, 10)
            assert shift(shift(p, s), t) == shift(p, s + t)

    def test_pointwise(self):
        q = shift(B3, 5)
        for x in range(-3, 4):
            assert q(x) == B3(x + 5)


class TestDecimate:
    def test_euler_split_first_arm(self):
        assert decimate(EULER, 3, 0) == QuadPoly(9, 3, 41)

    def test_square_arm(self):
        g = decimate(QuadPoly(1, 0, 0), 3, 1)
        assert g == QuadPoly(9, 6, 1)
        assert [g(t) for t in range(4)] == [1, 16, 49, 100]

    def test_identity(self):
        assert decimate(Q3, 1, 0) == Q3

    def test_partition_property(self):
        rng = random.Random(11)
        for _ in range(30):
            p = QuadPoly(rng.randint(-9, 9), rng.randint(-30, 30), rng.randint(-30, 30))
            m, T = rng.randint(1, 5), 12
            union = []
            for r in range(m):
                union.extend(decimate(p, m, r)(t) for t in range(T))
            assert sorted(union) == sorted(p(x) for x in range(m * T))

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            decimate(EULER, 3, 3)


class TestQuadPoly:
    def test_str(self):
        assert str(A3) == "9x^2 + 3x - 1"
        assert str(Q3) == "11x^2 - 31x + 31"

    def test_parse_triple(self):
        assert QuadPoly.parse("9,9,-1") == B3

    def test_parse_compact(self):
        assert QuadPoly.parse("11x^2-31x+31") == Q3
        assert QuadPoly.parse("9x^2 + 3x - 1") == A3
        assert QuadPoly.parse("x^2+x+41") == EULER
        assert QuadPoly.parse("-x^2+3x-7") == QuadPoly(-1, 3, -7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            QuadPoly.parse("x^3+1")

    def test_parse_bounds_literal_coefficients(self):
        assert QuadPoly.parse(f"{VALUE_LIMIT},{-VALUE_LIMIT},0") == QuadPoly(VALUE_LIMIT, -VALUE_LIMIT, 0)
        assert QuadPoly.parse(f"x^2+{VALUE_LIMIT}x-{VALUE_LIMIT}").c == -VALUE_LIMIT
        for text in (f"{VALUE_LIMIT + 1},0,0", f"1,{-VALUE_LIMIT - 1},0", "9" * 4299 + ",0,0",
                     f"{VALUE_LIMIT + 1}x^2+x+1", f"x^2+x-{VALUE_LIMIT + 1}"):
            with pytest.raises(ValueError, match="exceeds 2\\^63"):
                QuadPoly.parse(text)

    def test_exact_evaluation_at_large_x(self):
        x = 2**30
        p = QuadPoly(2**30, 2**30, 2**30)
        assert p(x) == 2**30 * x * x + 2**30 * x + 2**30

    def test_first_difference(self):
        for x in range(-5, 6):
            assert B3.first_difference(x) == B3(x + 1) - B3(x)

    def test_discriminant(self):
        assert Q3.discriminant == -403
        assert QuadPoly(11, -13, 13).discriminant == -403
