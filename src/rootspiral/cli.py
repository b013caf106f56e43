"""Command-line front door.

Subcommands: constants, verify-tables, factors, density, residues, detect,
plot.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error.  All output is deterministic; --json switches every
subcommand to the machine rendering.

Each command imports the modules it uses when it runs, so a process loads
only what its command needs.
"""

from __future__ import annotations

import argparse
import bisect
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .fixtures import (
    MAX_SCAN, TABLE_PREFIXES, WINDOW_LABELS, FixtureError, FixtureLookupError, FixtureSet,
    load_fixtures,
)
from .quad import QuadPoly, coefficient_rules_check
from .report import Report

if TYPE_CHECKING:
    from .factorlab import DensityReport

PAPER_C2 = -2.157782996659
APPENDIX_SQRT17_DEG = 8.84957988
# constants --k default and the least k given a c2 verdict: the end of
# spiral's exact prefix table (spiral._N0), where estimate_c2 costs O(1)
C2_VERDICT_K = 4096
DENSITY_CSV_HEADER = "index,value,is_prime,factors,sd,first_diff,second_diff"

class SystemExit2(Exception):
    """Usage/configuration error: exits with status 2."""


def _int_at_least(lowest: int, highest: int):
    """argparse type: an integer in [lowest, highest]."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        if value > highest:
            raise argparse.ArgumentTypeError(f"must be <= {highest}, got {value}")
        return value

    return integer


def _window_bounds(text: str) -> tuple[int, int]:
    """An index window 'lo:hi' or 'lo..hi' (hi exclusive) as (lo, hi)."""
    try:
        lo, hi = (int(v) for v in text.split(".." if ".." in text else ":", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must be lo:hi or lo..hi, got {text!r}") from None
    return lo, hi


def _window(text: str) -> str:
    """argparse type: a valid index window of at most MAX_SCAN terms, kept as typed."""
    lo, hi = _window_bounds(text)
    if lo < 1:
        raise argparse.ArgumentTypeError(f"window {text!r} starts at {lo}; arms are indexed from 1")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"window {text!r} is reversed: {hi} < {lo}")
    if hi - lo > MAX_SCAN:
        raise argparse.ArgumentTypeError(f"window spans {hi - lo} terms, at most {MAX_SCAN}")
    return text


def _resolve_poly(fx: FixtureSet, text: str) -> tuple[str, QuadPoly]:
    """An arm name from the fixtures, or literal coefficients 'a,b,c'.

    A fixture arm is named 'SYSTEM/ARM'; a literal keeps its text, which
    never holds a '/'.
    """
    try:
        system, arm = fx.find_arm(text)
        return f"{system.name}/{arm.name}", arm.poly
    except FixtureLookupError as exc:
        lookup_error = exc
    try:
        return text, QuadPoly.parse(text)
    except ValueError as exc:
        raise SystemExit2(f"not an arm or polynomial: {lookup_error.args[0]}; {exc}") from None


def cmd_constants(args: argparse.Namespace, fx: FixtureSet) -> Report:
    from . import spiral

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


def _verify_system(report: Report, system) -> int:
    """Check each arm's rules and mod-10 period, then the system's rules; returns the arms passed.

    The loader has already checked fit 1 against the six terms, so the rules
    hold for an arm exactly when each later fit is the one before shifted by 1.
    """
    from . import residues

    rules = coefficient_rules_check(system)
    passed = 0
    for arm in system.arms:
        woes = [f"{f.rule}: {f.detail}" for f in rules.failures if f.arm == arm.name]
        period = residues.residue_cycle(arm.poly, 10).period
        if period not in (1, 5):
            woes.append(f"mod-10 period {period}")
        report.add(f"{system.name}/{arm.name}", not woes, "; ".join(woes))
        passed += not woes
    report.add(
        f"{system.name} coefficient rules",
        rules.ok,
        "; ".join(f"{f.arm}:{f.rule}" for f in rules.failures),
    )
    return passed


def cmd_verify_tables(args: argparse.Namespace, fx: FixtureSet) -> Report:
    report = Report(command="verify-tables", inputs={"which": args.which})
    tables = tuple(TABLE_PREFIXES) if args.which == "all" else (args.which,)
    for which in tables:
        systems = fx.table_systems(which)
        if not systems:
            raise SystemExit2(f"fixture set has no table {which} arms")
        arms = sum(len(s.arms) for s in systems)
        passed = sum(_verify_system(report, system) for system in systems)
        report.data[f"table {which}"] = f"{passed}/{arms} arms pass"
        if which == "7":
            _check_euler_split(report, fx)
    return report


def _check_euler_split(report: Report, fx: FixtureSet) -> None:
    """The split of x^2+x+41 into three arms partitions its values."""
    from .numberspiral import sqrt_spiral_counterparts

    euler = fx.find_arm("NS-P41/P+41")[1].fits[1]  # x^2 + x + 41
    arms = sqrt_spiral_counterparts(euler)
    union = sorted(v for arm in arms for t in range(20) for v in [arm(t)])
    partition_ok = union == [euler(x) for x in range(60)]
    printed = [fx.find_arm(f"SQ-P41/P+41{letter}")[1].fits for letter in "ABC"]
    fits_ok = arms[0] == printed[0][1] and arms[1] == printed[1][1] and arms[2] == printed[2][2]
    report.add(
        "euler-split",
        partition_ok and fits_ok,
        "three decimated arms partition the sequence and match the printed fits",
    )


def cmd_factors(args: argparse.Namespace, fx: FixtureSet) -> Report:
    from . import factorlab

    name, poly = _resolve_poly(fx, args.arm)
    report = Report(
        command="factors",
        inputs={"arm": name, "poly": str(poly), "bound": args.bound, "window": args.window},
    )
    adm = factorlab.admissible_primes(poly, args.bound)
    report.data["discriminant"] = adm.discriminant
    report.data["admissible"] = list(adm.primes)
    rows = ["prime,roots,gaps"]
    for q in adm.primes:
        rc = factorlab.root_classes(poly, q)
        rows.append(f"{q},{' '.join(map(str, sorted(rc.roots)))},{' '.join(map(str, rc.gaps))}")
    report.data["root_classes_csv"] = "\n".join(rows)
    report.add("admissible-primes", True, f"{len(adm.primes)} primes <= {args.bound}")
    if args.compare is not None:
        other_name, other = _resolve_poly(fx, args.compare)
        comp = factorlab.same_splitting(poly, other, args.bound)
        report.inputs["compare"] = other_name
        report.add(
            "same-splitting",
            None,
            f"{name} vs {other_name}: "
            + ("identical" if comp.equal else f"first disagreement at {comp.witness}"),
            value=comp.equal,
        )
    if args.window:
        rows = ["index,value,smallest_prime_factor"]
        for rec in factorlab.density_scan(poly, *_window_bounds(args.window)).records:
            spf = "prime" if rec.prime else rec.factorization.smallest if rec.factorization else ""
            rows.append(f"{rec.x},{rec.value},{spf}")
        report.data["occurrence_csv"] = "\n".join(rows)
    return report


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


def _density_csv(dens: DensityReport, poly: QuadPoly) -> str:
    from . import residues

    rows = [DENSITY_CSV_HEADER]
    for rec in dens.records:
        factors = "" if rec.factorization is None else str(rec.factorization)
        first = poly.first_difference(rec.x - 1)  # difference from the previous row
        sd = residues.digit_sum(rec.value) if rec.value >= 0 else ""  # undefined below 0
        rows.append(f"{rec.x},{rec.value},{int(rec.prime)},{factors},{sd},{first},{poly.d2}")
    return "\n".join(rows)


def cmd_density(args: argparse.Namespace, fx: FixtureSet) -> Report:
    from . import factorlab

    name, poly = _resolve_poly(fx, args.arm)
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
        x0, default_len = _first_reaching(poly, int(float(args.at)), 10**8), 8
        if x0 is None:
            raise SystemExit2(f"{name} never reaches {args.at}")
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


def cmd_residues(args: argparse.Namespace, fx: FixtureSet) -> Report:
    from . import residues

    name, poly = _resolve_poly(fx, args.arm)
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


def cmd_detect(args: argparse.Namespace, fx: FixtureSet) -> Report:
    from . import factorlab

    report = Report(
        command="detect", inputs={"seed": args.seed_n, "d2": args.d2, "length": args.length}
    )
    try:
        chain = factorlab.detect_arm_chain(args.seed_n, args.d2, args.length)
    except factorlab.ChainNotFoundError as exc:
        report.add("chain", False, str(exc))
        return report
    report.data["values"] = list(chain.values)
    report.data["delta1"] = chain.delta1
    report.data["drifts"] = [round(d, 6) for d in chain.drifts]
    report.data["candidates"] = [
        {"delta1": c.delta1, "score": round(c.score, 6), "values": list(c.values)}
        for c in chain.candidates
    ]
    report.add("chain", True, f"first step {chain.delta1}, {len(chain.candidates)} candidates")
    return report


def cmd_plot(args: argparse.Namespace, fx: FixtureSet) -> Report:
    import hashlib

    from . import svgplot

    report = Report(command="plot", inputs={"what": args.what, "n": args.n})
    if args.what == "sqrt-spiral":
        svg = svgplot.plot_sqrt_spiral(args.n)
    elif args.what == "number-spiral":
        svg = svgplot.plot_number_spiral(args.n)
    elif args.what == "ulam":
        svg = svgplot.plot_ulam(args.n)
    elif args.what == "arms":
        if not args.system:
            raise SystemExit2("plot arms requires --system (e.g. P18-A)")
        system = next((s for s in fx.systems if s.name == args.system), None)
        if system is None:
            raise SystemExit2(f"unknown system {args.system!r}")
        report.inputs["system"] = args.system
        svg = svgplot.plot_arms(system, args.n)
    else:  # fig7
        _, k5 = fx.find_arm("K5")
        svg = svgplot.plot_fig7(args.n, k5.poly)
    out = Path(args.out) if args.out else Path(f"rootspiral-{args.what}.svg")
    try:
        out.write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write {out}: {exc}") from None
    report.data["path"] = str(out)
    report.data["bytes"] = len(svg.encode("utf-8"))
    report.data["sha256"] = hashlib.sha256(svg.encode("utf-8")).hexdigest()
    report.add("plot", True, f"wrote {out}")
    return report


def _add_common(p: argparse.ArgumentParser) -> None:
    # re-registered on every subparser (with SUPPRESS defaults, so absent
    # flags fall through to the main parser) to allow either flag position
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit the JSON report")
    p.add_argument("--out", default=argparse.SUPPRESS,
                   help="write the report (or SVG) to this path")
    p.add_argument("--fixture-file", default=argparse.SUPPRESS,
                   help="alternate fixture file (defaults to bundled data)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootspiral",
        description="Square-root spiral arm systems: constants, table checks, factor periods",
    )
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--fixture-file", default=None)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("constants", help="verify the geometric constants")
    # estimate_c2 streams the k - 4096 angle terms past the prefix table:
    # 10^8 takes ~0.8 s (2-vCPU VM)
    p.add_argument("--k", type=_int_at_least(2, 10**8), default=C2_VERDICT_K,
                   help="truncation index for the angle sums")
    _add_common(p)

    p = sub.add_parser("verify-tables", help="check the polynomial tables")
    p.add_argument("--which", choices=(*TABLE_PREFIXES, "all"), default="all")
    _add_common(p)

    p = sub.add_parser("factors", help="admissible primes and factor periods of an arm")
    p.add_argument("arm", help="arm name (B3, P20-G1) or coefficients a,b,c")
    # 1e7 already takes ~19 s; at 1e12 the prime sieve runs out of memory
    p.add_argument("--bound", type=_int_at_least(2, 10**7), default=100)
    p.add_argument("--window", type=_window, default=None,
                   help="index window lo:hi for the occurrence table")
    p.add_argument("--compare", default=None, help="second arm for a same-splitting comparison")
    _add_common(p)

    p = sub.add_parser("density", help="prime density over a spot-check window")
    p.add_argument("arm")
    p.add_argument("--at", choices=WINDOW_LABELS, default="start")
    p.add_argument("--len", type=_int_at_least(1, MAX_SCAN), default=None,
                   help="window length (default from fixture)")
    _add_common(p)

    p = sub.add_parser("residues", help="ending cycles and digit-sum profile of an arm")
    p.add_argument("arm")
    # digit sums cost str() of each value: 10^4 terms of an arm take ~0.1 s, of
    # a literal with a 4200-digit coefficient ~13 s
    p.add_argument("--terms", type=_int_at_least(5, 10**4), default=25)
    _add_common(p)

    # no abbreviations here, so that a stray --seed is an error, not --seed-n
    p = sub.add_parser("detect", help="detect a one-wind arm chain from a seed", allow_abbrev=False)
    # each reported drift streams ~2*pi*sqrt(n) angle terms: at both bounds a
    # run takes 1.0-1.3 s at 32 MB (2-vCPU VM), length 10^3 from seed 17 0.3 s
    p.add_argument("--seed-n", dest="seed_n", type=_int_at_least(1, 10**9), required=True,
                   help="first chain value")
    p.add_argument("--d2", type=int, choices=(18, 20, 22), required=True)
    p.add_argument("--length", type=_int_at_least(2, 10**3), default=6)
    _add_common(p)

    p = sub.add_parser("plot", help="emit a deterministic SVG")
    p.add_argument("what", choices=("sqrt-spiral", "number-spiral", "ulam", "arms", "fig7"))
    p.add_argument("--n", type=_int_at_least(1, 10**5), default=300)  # the SVG point budget
    p.add_argument("--system", default=None, help="arm system for 'arms'")
    _add_common(p)
    return parser


_DISPATCH = {
    "constants": cmd_constants,
    "verify-tables": cmd_verify_tables,
    "factors": cmd_factors,
    "density": cmd_density,
    "residues": cmd_residues,
    "detect": cmd_detect,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fx = load_fixtures(args.fixture_file)
    except (FixtureError, OSError, UnicodeDecodeError) as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return 2
    try:
        report = _DISPATCH[args.cmd](args, fx)
    except (SystemExit2, OverflowError) as exc:  # overflow: an input outside the exact range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FixtureLookupError as exc:  # e.g. plot fig7 on a fixture file without K5
        print(f"fixture error: {exc.args[0]}", file=sys.stderr)
        return 2
    rendered = report.to_json() if args.json else report.to_text()
    if args.out and args.cmd != "plot":
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
