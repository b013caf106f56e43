"""rootspiral density: prime density over a spot-check window."""

import argparse
import bisect

from .. import factorlab, residues
from ..fixtures import load_fixtures
from ..quad import QuadPoly
from ..report import Report
from . import SystemExit2, resolve_poly

DENSITY_CSV_HEADER = "index,value,is_prime,factors,sd,first_diff,second_diff"


def _first_reaching(poly: QuadPoly, target: int, limit: int) -> int | None:
    """The smallest x in [1, limit] with poly(x) >= target, or None.

    poly is monotone on each side of its vertex, so each side either starts
    at the target, rises to it (found by bisection) or never reaches it.
    """
    vertex = -poly.b // (2 * poly.a) if poly.a else 0
    for lo, hi in ((1, min(vertex, limit)), (max(vertex + 1, 1), limit)):
        if lo <= hi and poly(lo) >= target:
            return lo
        if lo <= hi and poly(hi) >= target:
            return bisect.bisect_left(range(hi + 1), True, lo, key=lambda x: poly(x) >= target)
    return None


def _density_csv(dens: factorlab.DensityReport, poly: QuadPoly) -> str:
    rows = [DENSITY_CSV_HEADER]
    for rec in dens.records:
        factors = "" if rec.factorization is None else str(rec.factorization)
        first = poly.first_difference(rec.x - 1)  # difference from the previous row
        sd = residues.digit_sum(rec.value) if rec.value >= 0 else ""  # undefined below 0
        rows.append(f"{rec.x},{rec.value},{int(rec.prime)},{factors},{sd},{first},{poly.d2}")
    return "\n".join(rows)


def run(args: argparse.Namespace) -> Report:
    fx = load_fixtures(args.fixture_file)
    name, poly = resolve_poly(fx, args.arm)
    report = Report(
        command="density", inputs={"arm": name, "at": args.at, "len": args.len}
    )
    window = next(
        (w for w in fx.windows if f"{w.system}/{w.arm}" == name and w.label == args.at), None
    )
    if window is not None:
        x0, default_len = window.start_x, window.length
    elif args.at == "start":
        x0, default_len = 1, 8
    else:
        # bisect takes a range of fewer than 2^63 elements
        x0, default_len = _first_reaching(poly, int(float(args.at)), 2**62), 8
        if x0 is None:
            raise SystemExit2(f"{name} never reaches {args.at} for x <= 2^62")
    dens = factorlab.density_scan(poly, x0, x0 + (args.len or default_len))
    report.data["csv"] = _density_csv(dens, poly)
    report.data["prime_share"] = round(dens.prime_share, 6)
    report.data["coprime30_share"] = round(dens.coprime_share, 6)
    report.add(
        "prime-share",
        None,
        f"{dens.prime_count}/{len(dens.records)} prime"
        + ("; start-of-sequence band is 70-75%" if args.at == "start" else ""),
        value=round(dens.prime_share, 6),
    )
    return report
