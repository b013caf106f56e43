"""rootspiral plot: a deterministic SVG."""

import argparse
import hashlib

from .. import svgplot
from ..fixtures import load_fixtures
from ..report import Report
from . import SystemExit2


def run(args: argparse.Namespace) -> Report:
    # only arms and fig7 draw fixture arms; the fixture set is parsed before
    # any argument check, so a bad fixture file is the error reported first
    fx = load_fixtures(args.fixture_file) if args.what in ("arms", "fig7") else None
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
    out = args.out or f"rootspiral-{args.what}.svg"
    data = svg.encode("utf-8")
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise SystemExit2(f"cannot write {out}: {exc}") from None
    report.data["path"] = out
    report.data["bytes"] = len(data)
    report.data["sha256"] = hashlib.sha256(data).hexdigest()
    report.add("plot", True, f"wrote {out}")
    return report
