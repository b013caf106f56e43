"""Number-spiral coordinates, composite curves, Ulam mapping."""

import math
from fractions import Fraction

import pytest

from rootspiral import factorlab
from rootspiral.numberspiral import (
    composite_factor,
    composite_params,
    ns_polar,
    pronic_triangle_angle,
    sqrt_spiral_counterparts,
    ulam_coord,
)
from rootspiral.quad import QuadPoly

EULER = QuadPoly(1, 1, 41)
PRONIC = QuadPoly(1, 1, 0)
SQUARES = QuadPoly(1, 0, 0)


class TestNsPolar:
    def test_origin(self):
        assert ns_polar(0) == 0.0

    def test_square_on_ray(self):
        assert ns_polar(16) == 4.0

    def test_definitional(self):
        assert ns_polar(2) == math.sqrt(2)

    def test_all_squares_at_integer_rotation(self):
        for m in range(1, 1001):
            theta = ns_polar(m * m)
            assert abs(theta - round(theta)) < 1e-12 * max(1.0, theta)

    def test_domain(self):
        with pytest.raises(ValueError):
            ns_polar(-1)


def _theta(angle_num: int, angle_den: int, n: int) -> float:
    """Angle in rotations of f(n) on the number spiral, less n whole rotations,
    for the composite curve f of angle angle_num/angle_den: sqrt(f(n)) - n*sqrt(a)."""
    a, b, _ = composite_params(angle_num, angle_den)
    return math.sqrt(a * n * n + b * n) - n * math.isqrt(a)


class TestOffsetCurvePoints:
    # composite_params gives the curve x(ax + b) whose points tend to the ray
    # at angle_num/angle_den rotations from the squares' ray
    def test_squares_ray_theta_zero(self):
        assert composite_params(0, 1)[:2] == (1, 0)  # x^2
        for n in range(50):
            assert _theta(0, 1, n) == 0.0

    def test_one_third_angle_curve(self):
        assert composite_params(1, 3)[:2] == (9, 2)  # x(9x + 2)
        assert _theta(1, 3, 1999) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_pronic_tends_to_half_rotation(self):
        assert composite_params(1, 2)[:2] == (1, 1)  # x(x + 1)
        assert _theta(1, 2, 4999) == pytest.approx(0.5, abs=1e-4)


class TestCompositeParams:
    def test_one_third(self):
        assert composite_params(1, 3) == (9, 2, Fraction(1, 9))

    def test_one_quarter(self):
        assert composite_params(1, 4) == (4, 1, Fraction(1, 16))

    def test_zero_angle(self):
        assert composite_params(0, 1) == (1, 0, Fraction(0))

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            composite_params(2, 6)


class TestCompositeFactor:
    def test_one_third_curve_at_two(self):
        assert composite_factor(QuadPoly(9, 2, 0), 2) == (2, 20)
        assert 2 * 20 == QuadPoly(9, 2, 0)(2)

    def test_pronic_at_five(self):
        assert composite_factor(PRONIC, 5) == (5, 6)

    def test_zero_start(self):
        assert composite_factor(QuadPoly(9, 2, 0), 0) == (0, 2)
        assert QuadPoly(9, 2, 0)(0) == 0

    def test_requires_zero_constant(self):
        with pytest.raises(ValueError):
            composite_factor(EULER, 2)

    def test_curve_values_composite(self):
        for num, den in ((1, 3), (1, 4)):
            a, b, _ = composite_params(num, den)
            curve = QuadPoly(a, b, 0)
            for x in range(2, 101):
                fx, fy = composite_factor(curve, x)
                assert fx * fy == curve(x)
                assert fx > 1 and fy > 1
                assert not factorlab.is_prime(curve(x))


def _walk_oracle(n_max: int) -> dict[int, tuple[int, int]]:
    """Independent square-spiral walk: first step +x, turn left when possible."""
    pos = {1: (0, 0)}
    x = y = 0
    dx, dy = 1, 0
    visited = {(0, 0)}
    for n in range(2, n_max + 1):
        if n > 2:  # after the forced first step, turn left whenever free
            lx, ly = -dy, dx
            if (x + lx, y + ly) not in visited:
                dx, dy = lx, ly
        x, y = x + dx, y + dy
        visited.add((x, y))
        pos[n] = (x, y)
    return pos


class TestUlamCoord:
    def test_center(self):
        c = ulam_coord(1)
        assert (c.x, c.y) == (0, 0)

    def test_odd_square_corners(self):
        assert (ulam_coord(9).x, ulam_coord(9).y) == (1, -1)
        assert (ulam_coord(25).x, ulam_coord(25).y) == (2, -2)
        for k in range(1, 16):
            c = ulam_coord((2 * k + 1) ** 2)
            assert (c.x, c.y) == (k, -k)

    def test_even_squares_adjacent_diagonal(self):
        for k in range(1, 16):
            c = ulam_coord((2 * k) ** 2)
            assert (c.x, c.y) == (-(k - 1), k)

    def test_against_walk_oracle(self):
        oracle = _walk_oracle(2025)
        for n, (x, y) in oracle.items():
            c = ulam_coord(n)
            assert (c.x, c.y) == (x, y), n

    def test_ring_bound(self):
        for n in range(1, 2000):
            c = ulam_coord(n)
            k = (math.isqrt(n - 1) + 1) // 2 if n > 1 else 0
            assert max(abs(c.x), abs(c.y)) == k or n == 1

    def test_consecutive_are_lattice_neighbours(self):
        prev = ulam_coord(1)
        for n in range(2, 500):
            cur = ulam_coord(n)
            assert abs(cur.x - prev.x) + abs(cur.y - prev.y) == 1
            prev = cur


class TestCounterparts:
    def test_euler_polynomial_three_arms(self):
        arms = sqrt_spiral_counterparts(EULER)
        assert [[a(t) for t in range(6)] for a in arms] == [
            [41, 53, 83, 131, 197, 281],
            [43, 61, 97, 151, 223, 313],
            [47, 71, 113, 173, 251, 347],
        ]

    def test_squares_split_by_residue(self):
        arms = sqrt_spiral_counterparts(SQUARES)
        for r, arm in enumerate(arms):
            for t in range(10):
                assert arm(t) == (3 * t + r) ** 2

    def test_pronic_arm_prefixes(self):
        arms = sqrt_spiral_counterparts(PRONIC)
        assert [arms[0](t) for t in range(1, 4)] == [12, 42, 90]
        assert [arms[1](t) for t in range(1, 4)] == [20, 56, 110]
        assert [arms[2](t) for t in range(3)] == [6, 30, 72]

    def test_partition(self):
        arms = sqrt_spiral_counterparts(EULER)
        union = sorted(arm(t) for arm in arms for t in range(20))
        assert union == [EULER(x) for x in range(60)]


class TestPronicTriangleAngle:
    def test_t100(self):
        assert abs(pronic_triangle_angle(100) - (math.pi - 2)) < 0.1

    def test_t1000(self):
        assert abs(pronic_triangle_angle(1000) - (math.pi - 2)) < 1e-3

    def test_supplement_is_square_arm_step(self):
        # pi - (pi - 2) = 2 rad, i.e. the 360/pi-degree square step
        assert math.pi - (math.pi - 2) == pytest.approx(math.radians(360.0 / math.pi))

    def test_domain(self):
        with pytest.raises(ValueError):
            pronic_triangle_angle(1)
