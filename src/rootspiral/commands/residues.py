"""rootspiral residues: ending cycles and digit-sum profile of an arm."""

import argparse

from .. import residues
from ..report import Report
from . import fixture_set, resolve_poly


def run(args: argparse.Namespace) -> Report:
    name, poly = resolve_poly(fixture_set(args), args.arm)
    report = Report(command="residues", inputs={"arm": name, "terms": args.terms})
    cyc = residues.residue_cycle(poly, 10)
    report.data["ending_cycle"] = list(cyc.cycle)
    report.data["ending_period"] = cyc.period
    report.data["ending_alphabet"] = sorted(residues.ending_alphabet(poly))
    if any(poly(t) < 0 for t in range(1, args.terms + 1)):  # digit sums undefined below 0
        report.data["sd_ordered"], report.data["sd_pattern"] = [], "n/a"
    else:
        prof = residues.sd_profile(poly, args.terms)
        report.data["sd_ordered"] = list(prof.ordered_distinct)
        gaps = prof.gaps
        report.data["sd_pattern"] = (
            "n/a" if poly.a <= 0  # only finitely many terms are positive
            else f"constant {gaps[0]}" if len(set(gaps)) == 1
            else f"cycle {gaps}"
        )
    for k in (2, 3, 5):
        pos = residues.divisibility_positions(poly, k)
        report.data[f"divisible_by_{k}"] = sorted(pos)
    six = [
        residues.six_classify(v).value if v >= 1 else "n/a"
        for v in (poly(t) for t in range(1, 7))
    ]
    report.data["six_classes"] = six
    # a mod-10 period of 1 or 5 is the paper's claim for its arms; a literal's is only reported
    claim = cyc.period in (1, 5) if "/" in name else None
    report.add("ending-period", claim, f"mod-10 period {cyc.period}")
    return report
