"""The number spiral and the Ulam spiral as companion coordinate systems.

On the number spiral the integer n sits at polar (r, theta) = (sqrt(n),
sqrt(n) rotations), which lines every perfect square up on a single ray.
A composite curve is a quadratic with square leading coefficient and zero
constant term, so its terms factor as y = x*(a*x + b); its points tend to
the ray at b/(2*sqrt(a)) rotations.  One step of an a = 1 curve turns the
square-root spiral by about 2*sqrt(a) = 2 rad, so f(3t + r), with a = 9,
turns it by 6 rad per step: one wind plus 6 - 2*pi = -16.23 degrees, the
d2 = 18 drift.  So one number-spiral curve splits into three arms there
(decimation by 3).
"""

import math
from typing import TYPE_CHECKING, NamedTuple

from .quad import QuadPoly, decimate

if TYPE_CHECKING:
    from fractions import Fraction


def ns_polar(n: int) -> float:
    """sqrt(n): both the radius of n on the number spiral and its angle in rotations."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return math.sqrt(n)


class UlamCoord(NamedTuple):
    """Lattice position of a number on the standard square spiral."""

    x: int
    y: int


def ulam_coord(n: int) -> UlamCoord:
    """Square-spiral coordinates: 1 at the origin, first step +x, counter-clockwise.

    Ring k holds (2k-1)^2+1 .. (2k+1)^2; odd squares land on the (k, -k)
    corner diagonal.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return UlamCoord(0, 0)
    k = (math.isqrt(n - 1) + 1) // 2  # ring index
    side = 2 * k
    offset = n - (2 * k - 1) ** 2  # steps past the ring entry point (k, -k+1)
    leg, pos = divmod(offset - 1, side)
    if leg == 0:  # up the right edge
        return UlamCoord(k, -k + 1 + pos)
    if leg == 1:  # left along the top
        return UlamCoord(k - 1 - pos, k)
    if leg == 2:  # down the left edge
        return UlamCoord(-k, k - 1 - pos)
    return UlamCoord(-k + 1 + pos, -k)  # right along the bottom


def composite_params(angle_num: int, angle_den: int) -> "tuple[int, int, Fraction]":
    """Composite-curve coefficients (a, b) and offset for a rational angle.

    For angle n/d with even denominator: a = (d/2)^2, b = n, offset =
    (n/d)^2; odd denominators are doubled first.
    """
    from fractions import Fraction

    if angle_den < 1:
        raise ValueError(f"denominator must be >= 1, got {angle_den}")
    if math.gcd(angle_num, angle_den) != 1 and not (angle_num == 0 and angle_den == 1):
        raise ValueError(f"angle {angle_num}/{angle_den} is not reduced")
    num, den = angle_num, angle_den
    if den % 2:
        num, den = 2 * num, 2 * den
    half = den // 2
    return half * half, num, Fraction(num, den) ** 2


def composite_factor(p: QuadPoly, x: int) -> tuple[int, int]:
    """The forced factor pair (x, a*x + b) of a composite-curve value."""
    if p.c != 0:
        raise ValueError(f"{p} is not a composite curve (c must be zero)")
    return x, p.a * x + p.b


def sqrt_spiral_counterparts(p: QuadPoly) -> tuple[QuadPoly, QuadPoly, QuadPoly]:
    """The three square-root-spiral arms of a number-spiral curve.

    A step of an a = 1 curve turns the square-root spiral by about
    2*sqrt(a) = 2 rad, so a step of p(3t+r), with a = 9, turns it by 6 rad:
    one wind plus 6 - 2*pi = -16.23 degrees, the d2 = 18 drift.  So each of
    the decimations p(3t+r), r = 0, 1, 2, winds once per step, an arm.
    """
    return decimate(p, 3, 0), decimate(p, 3, 1), decimate(p, 3, 2)


def pronic_triangle_angle(t: int) -> float:
    """Interior angle at pronic t(t+1) between chords to its pronic neighbours.

    The pronics k(k+1) for k = t-1, t, t+1 are placed exactly on the
    square-root spiral and joined by straight chords in the plane; the
    angle at the middle vertex tends to pi - 2 (successive pronics sit
    ~2 radians apart at nearly equal radius).
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    from .spiral import total_angle

    pts = []
    for k in (t - 1, t, t + 1):
        n = k * (k + 1)
        phi = total_angle(n)
        r = math.sqrt(n)
        pts.append((r * math.cos(phi), r * math.sin(phi)))
    (x0, y0), (x1, y1), (x2, y2) = pts
    ux, uy = x0 - x1, y0 - y1
    vx, vy = x2 - x1, y2 - y1
    cosang = (ux * vx + uy * vy) / (math.hypot(ux, uy) * math.hypot(vx, vy))
    return math.acos(max(-1.0, min(1.0, cosang)))
