"""rootspiral residues: ending cycles and digit-sum profile of an arm."""

import argparse

from .. import residues
from ..fixtures import load_fixtures
from ..report import Report
from . import resolve_poly


def run(args: argparse.Namespace) -> Report:
    name, poly = resolve_poly(load_fixtures(args.fixture_file), args.arm)
    report = Report(command="residues", inputs={"arm": name, "terms": args.terms})
    cycle = residues.residue_cycle(poly, 10)
    report.data["ending_cycle"] = list(cycle)
    report.data["ending_period"] = len(cycle)
    report.data["ending_alphabet"] = sorted(set(cycle))
    if any(poly(t) < 0 for t in range(1, args.terms + 1)):  # digit sums undefined below 0
        report.data["sd_ordered"], report.data["sd_pattern"] = [], "n/a"
    else:
        report.data["sd_ordered"] = sorted(
            {residues.digit_sum(poly(t)) for t in range(1, args.terms + 1)})
        gaps = residues.digit_sum_gaps(poly)
        # a line or a constant is no arm, and a < 0 has finitely many positive terms
        report.data["sd_pattern"] = (
            "n/a" if poly.a <= 0
            else f"constant {gaps[0]}" if len(set(gaps)) == 1
            else f"cycle {gaps}"
        )
    for k in (2, 3, 5):
        pos = residues.divisibility_positions(poly, k)
        report.data[f"divisible_by_{k}"] = sorted(pos)
    six = [
        residues.six_classify(v) if v >= 1 else "n/a"
        for v in (poly(t) for t in range(1, 7))
    ]
    report.data["six_classes"] = six
    # a mod-10 period of 1 or 5 is the paper's claim for its arms; a literal's is only reported
    claim = len(cycle) in residues.ENDING_PERIODS if "/" in name else None
    report.add("ending-period", claim, f"mod-10 period {len(cycle)}")
    return report
