"""Deterministic SVG renderings of the spirals.

Every plot is drawn on the same SIZE x SIZE canvas, scaled so that the
plotted region fits it.  Coordinates are rounded to 1e-4 user units,
elements are emitted in a fixed order, and nothing time- or
environment-dependent enters the output, so identical inputs give
byte-identical files.
"""

import itertools
import math
from collections.abc import Iterable, Iterator

from .quad import ArmSystem, QuadPoly
from .sieve import primes_up_to

SIZE = 800.0  # canvas width and height in SVG user units

_PALETTE = ("#d4442c", "#2c6fd4", "#2ca05a", "#b06fd4", "#d49a2c", "#2cb5b5")


def _fmt(x: float) -> str:
    """Fixed-precision coordinate: 4 decimals, trailing zeros trimmed."""
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


class _Canvas:
    def __init__(self, half_extent: float) -> None:
        self.scale = SIZE / (2.0 * half_extent)
        self.elements: list[str] = []
        self._circle_tails: dict[tuple[float, str], str] = {}  # (r, fill) -> formatted tail

    def _xy(self, x: float, y: float) -> tuple[str, str]:
        # +y up in math coordinates, down in SVG
        return _fmt(SIZE / 2 + x * self.scale), _fmt(SIZE / 2 - y * self.scale)

    def circle(self, x: float, y: float, r: float, fill: str) -> None:
        cx, cy = self._xy(x, y)
        tail = self._circle_tails.get((r, fill))
        if tail is None:
            tail = self._circle_tails[r, fill] = f'" r="{_fmt(r)}" fill="{fill}"/>'
        self.elements.append(f'<circle cx="{cx}" cy="{cy}{tail}')

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str, width: float) -> None:
        a, b = self._xy(x1, y1)
        c, d = self._xy(x2, y2)
        self.elements.append(
            f'<line x1="{a}" y1="{b}" x2="{c}" y2="{d}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def polyline(self, pts: list[tuple[float, float]], stroke: str, width: float) -> None:
        coords = " ".join(",".join(self._xy(x, y)) for x, y in pts)
        self.elements.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def render(self) -> str:
        size = _fmt(SIZE)
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">\n'
            f'<rect width="{size}" height="{size}" fill="white"/>\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


def _sqrt_xy(ns: Iterable[int]) -> Iterator[tuple[float, float]]:
    """Plane positions of the integers ns on the square-root spiral."""
    from .spiral import total_angle

    for n in ns:
        r, phi = math.sqrt(n), total_angle(n)
        yield r * math.cos(phi), r * math.sin(phi)


def _arm_polyline(cv: _Canvas, poly: QuadPoly, n_max: int, stroke: str, width: float) -> None:
    """The arm's values f(1), f(2), ... up to n_max, joined on the spiral."""
    values = itertools.takewhile(lambda v: v <= n_max, map(poly, itertools.count(1)))
    pts = list(_sqrt_xy(values))
    if len(pts) >= 2:
        cv.polyline(pts, stroke, width)


def plot_sqrt_spiral(n: int) -> str:
    """The triangle chain itself: rays, outer edge, primes and squares marked."""
    cv = _Canvas(math.sqrt(n) * 1.05 + 1.0)
    pts = list(_sqrt_xy(range(1, n + 1)))
    for x, y in pts:
        cv.line(0.0, 0.0, x, y, "#cccccc", 0.5)
    cv.polyline(pts, "#555555", 1.0)
    primes = set(primes_up_to(n))
    for k, (x, y) in enumerate(pts, start=1):
        root = math.isqrt(k)
        if root * root == k:
            cv.circle(x, y, 4.0, "#2ca05a")
        elif k in primes:
            cv.circle(x, y, 3.0, "#d4a800")
    return cv.render()


def plot_number_spiral(n: int) -> str:
    """Number-spiral layout: squares on one ray, primes darkened."""
    from .numberspiral import ns_polar

    cv = _Canvas(math.sqrt(n) * 1.05 + 1.0)
    primes = set(primes_up_to(n))
    for k in range(n + 1):
        r = ns_polar(k)  # the radius, and the angle in rotations
        ang = 2.0 * math.pi * r
        x, y = r * math.cos(ang), r * math.sin(ang)
        if k in primes:
            cv.circle(x, y, 2.4, "#222222")
        else:
            cv.circle(x, y, 1.2, "#bbbbbb")
    return cv.render()


def plot_ulam(n: int) -> str:
    """Ulam dot plot; primes dark, corner squares tinted."""
    from . import factorlab  # imported on use: the other plots take their primes from the sieve
    from .numberspiral import ulam_coord

    cv = _Canvas(math.isqrt(n) / 2.0 + 1.5)
    dot = max(1.0, 0.42 * cv.scale)
    for k in range(1, n + 1):
        if factorlab.is_prime(k):
            c = ulam_coord(k)
            cv.circle(float(c.x), float(c.y), dot, "#222222")
        elif math.isqrt(k) ** 2 == k:
            c = ulam_coord(k)
            cv.circle(float(c.x), float(c.y), 0.7 * dot, "#2ca05a")
    return cv.render()


def plot_arms(system: ArmSystem, n_max: int) -> str:
    """Spiral dots with one system's arms overlaid as polylines."""
    cv = _Canvas(math.sqrt(n_max) * 1.05 + 1.0)
    primes = set(primes_up_to(n_max))
    for k, (x, y) in enumerate(_sqrt_xy(range(1, n_max + 1)), start=1):
        if k in primes:
            cv.circle(x, y, 2.2, "#d4a800")
        else:
            cv.circle(x, y, 0.8, "#cccccc")
    for i, arm in enumerate(system.arms):
        _arm_polyline(cv, arm.poly, n_max, _PALETTE[i % len(_PALETTE)], 1.4)
    return cv.render()


def plot_fig7(n_max: int, k5_poly) -> str:
    """The K5 arm over the divisibility spirals of 7, 11 and 17."""
    cv = _Canvas(math.sqrt(n_max) * 1.05 + 1.0)
    colors = {7: "#f2b5a0", 11: "#b5c8f2", 17: "#b5f2c8"}
    marked = [k for k in range(1, n_max + 1) if any(k % q == 0 for q in colors)]
    for k, (x, y) in zip(marked, _sqrt_xy(marked)):
        cv.circle(x, y, 2.0, next(color for q, color in colors.items() if k % q == 0))
    _arm_polyline(cv, k5_poly, n_max, "#d4442c", 1.6)
    return cv.render()
