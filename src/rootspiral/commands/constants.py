"""rootspiral constants: the geometric constants of the spiral."""

import argparse
import math

from .. import spiral
from ..report import Report
from . import C2_VERDICT_K

PAPER_C2 = -2.157782996659
APPENDIX_SQRT17_DEG = 8.84957988


def run(args: argparse.Namespace) -> Report:
    report = Report(command="constants", inputs={"k": args.k})
    k = args.k
    c2 = spiral.estimate_c2(k, accelerate=True)
    # the 1e-9 agreement is validated from the full prefix table on (k >=
    # 4096); below that the estimate is reported without a verdict
    if k >= C2_VERDICT_K:
        report.add(
            "c2-accelerated",
            abs(c2 - PAPER_C2) <= 1e-9,
            f"estimate_c2({k}, accelerated)",
            value=c2,
            expected=PAPER_C2,
        )
    else:
        report.add("c2-accelerated", None, f"estimate_c2({k}) at reduced k", value=c2)
        report.add("c2-raw", None, "raw estimate at reduced k", value=spiral.estimate_c2(k, False))
    # closed-form bisection: the same cost at any n
    gap = spiral.winding_gap(10**6)
    report.add(
        "winding-gap",
        abs(gap - math.pi) <= 1e-3,
        "winding_gap(1000000)",
        value=gap,
        expected=math.pi,
    )
    sq = spiral.square_arm_angle(1000)
    report.add(
        "square-arm-angle",
        abs(sq - 360.0 / math.pi) <= 0.01,
        "square_arm_angle(1000) degrees",
        value=sq,
        expected=360.0 / math.pi,
    )
    appendix = spiral.appendix_angle_deg(17)
    report.add(
        "appendix-sqrt17",
        abs(appendix - APPENDIX_SQRT17_DEG) <= 1e-5,
        "360 - total_angle(17) in degrees",
        value=appendix,
        expected=APPENDIX_SQRT17_DEG,
    )
    return report
