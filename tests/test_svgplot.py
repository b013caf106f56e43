"""SVG plots: every value written is positive and every point lies on the canvas."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootspiral import svgplot
from rootspiral.fixtures import load_fixtures

_FX = load_fixtures()
_P18A = next(s for s in _FX.systems if s.name == "P18-A")
_K5 = _FX.find_arm("K5")[1].poly

PLOTS = {
    "sqrt-spiral": svgplot.plot_sqrt_spiral,
    "number-spiral": svgplot.plot_number_spiral,
    "ulam": svgplot.plot_ulam,
    "arms": lambda n: svgplot.plot_arms(_P18A, n),
    "fig7": lambda n: svgplot.plot_fig7(n, _K5),
}
_COORDS = re.compile(r' (?:cx|cy|x1|y1|x2|y2|points)="([^"]*)"')


@pytest.mark.parametrize("kind", PLOTS)
@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3000))
@example(n=1)
@example(n=2)
@example(n=10**5)  # the plot command's --n bound
def test_every_coordinate_lies_inside_the_canvas(kind, n):
    # each plot's half-extent passes its farthest point, so no coordinate
    # reaches an edge, and no value _fmt writes is negative or "-0"
    svg = PLOTS[kind](n)
    coords = [float(v) for group in _COORDS.findall(svg) for v in re.split("[ ,]", group)]
    assert all(0 < v < svgplot.SIZE for v in coords)
    assert coords or (kind == "fig7" and n < 7)  # fig7 marks no point below 7
    assert '="-' not in svg
