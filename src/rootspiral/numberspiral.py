"""The number spiral and the Ulam spiral as companion coordinate systems.

On the number spiral the integer n sits at polar (r, theta) = (sqrt(n),
sqrt(n) rotations), which lines every perfect square up on a single ray.
Offset curves are quadratics with square leading coefficient; those with
zero constant term are composite curves, factoring term-by-term as
y = x*(a*x + b).  The square-root spiral winds about three times wider, so
one number-spiral curve splits into three arms there (decimation by 3).
"""

import math
from typing import TYPE_CHECKING, NamedTuple

from .quad import QuadPoly, decimate

if TYPE_CHECKING:
    from fractions import Fraction


class NumberSpiralPoint(NamedTuple):
    """Placement of n on the number spiral; theta is in full rotations."""

    n: int
    r: float
    theta_rotations: float


def ns_polar(n: int) -> NumberSpiralPoint:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rt = math.sqrt(n)
    return NumberSpiralPoint(n=n, r=rt, theta_rotations=rt)


class UlamCoord(NamedTuple):
    """Lattice position of n on the standard square spiral."""

    n: int
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
        return UlamCoord(1, 0, 0)
    k = (math.isqrt(n - 1) + 1) // 2  # ring index
    side = 2 * k
    offset = n - (2 * k - 1) ** 2  # steps past the ring entry point (k, -k+1)
    leg, pos = divmod(offset - 1, side)
    if leg == 0:  # up the right edge
        return UlamCoord(n, k, -k + 1 + pos)
    if leg == 1:  # left along the top
        return UlamCoord(n, k - 1 - pos, k)
    if leg == 2:  # down the left edge
        return UlamCoord(n, -k, k - 1 - pos)
    return UlamCoord(n, -k + 1 + pos, -k)  # right along the bottom


class OffsetCurve(NamedTuple):
    """Classification of a quadratic as a number-spiral offset/composite curve."""

    poly: QuadPoly
    is_offset: bool  # leading coefficient is a perfect square
    is_composite: bool  # offset curve with zero constant term
    angle: "Fraction | None"  # rotation angle b/(2*sqrt(a)) when composite


def classify_offset_curve(p: QuadPoly) -> OffsetCurve:
    from fractions import Fraction  # imported on use: no command builds a Fraction

    root = math.isqrt(p.a) if p.a >= 0 else 0
    is_offset = p.a > 0 and root * root == p.a
    is_composite = is_offset and p.c == 0
    angle = Fraction(p.b, 2 * root) if is_composite else None
    return OffsetCurve(poly=p, is_offset=is_offset, is_composite=is_composite, angle=angle)


def offset_curve_points(p: QuadPoly, count: int) -> list[tuple[float, float]]:
    """(r, theta) of the curve's first points: r = sqrt(f(n)), theta = r - n*sqrt(a).

    theta is in rotations.  Raises at the first index whose radicand is
    negative.
    """
    curve = classify_offset_curve(p)
    if not curve.is_offset:
        raise ValueError(f"{p} is not an offset curve (a must be a perfect square)")
    root = math.isqrt(p.a)
    points = []
    for n in range(count):
        v = p(n)
        if v < 0:
            raise ValueError(f"negative radicand {v} at index {n}")
        r = math.sqrt(v)
        points.append((r, r - n * root))
    return points


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

    One curve there corresponds to three arms here because the square-root
    spiral holds three of its terms per wind: the decimations p(3t+r) for
    r = 0, 1, 2.
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
