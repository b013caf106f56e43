"""Command-line front door: the parser and main.

Subcommands: constants, verify-tables, factors, density, residues, detect,
plot.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error.  All output is deterministic; --json switches every
subcommand to the machine rendering.

Each subcommand's handler is its own module, rootspiral.commands.<name>
with - as _, which main imports for the command it runs; each handler
imports the library modules it uses, and only the handlers that read the
fixture set parse it.  So a process compiles the parser plus one handler,
which counts when no bytecode cache is written (PYTHONDONTWRITEBYTECODE or
a read-only install).
"""

import argparse
import importlib
import sys
from pathlib import Path

from .commands import C2_VERDICT_K, SystemExit2, window_bounds

# load_fixtures stays importable from here: perfbench times the set-up as
# `import rootspiral.cli` plus rootspiral.cli.load_fixtures()
from .fixtures import (
    MAX_SCAN, TABLE_PREFIXES, WINDOW_LABELS, FixtureError, FixtureLookupError, load_fixtures
)


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


def _window(text: str) -> str:
    """argparse type: a valid index window of at most MAX_SCAN terms, kept as typed."""
    lo, hi = window_bounds(text)
    if lo < 1:
        raise argparse.ArgumentTypeError(f"window {text!r} starts at {lo}; arms are indexed from 1")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"window {text!r} is reversed: {hi} < {lo}")
    if hi - lo > MAX_SCAN:
        raise argparse.ArgumentTypeError(f"window spans {hi - lo} terms, at most {MAX_SCAN}")
    return text


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
    # 10^8 takes ~0.6 s (2-vCPU VM)
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
    # digit sums cost str() of each value, and QuadPoly.parse caps a literal's
    # coefficients at 2^63: 10^4 terms of the largest literal take ~0.05 s (2-vCPU VM)
    p.add_argument("--terms", type=_int_at_least(5, 10**4), default=25)
    _add_common(p)

    # no abbreviations here, so that a stray --seed is an error, not --seed-n
    p = sub.add_parser("detect", help="detect a one-wind arm chain from a seed", allow_abbrev=False)
    # each reported drift streams ~2*pi*sqrt(n) angle terms: at both bounds a
    # run takes 1.0-1.1 s at 31 MB (2-vCPU VM), length 10^3 from seed 17 0.2 s
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = importlib.import_module(f"rootspiral.commands.{args.cmd.replace('-', '_')}")
    try:
        report = handler.run(args)
    except (SystemExit2, OverflowError) as exc:  # overflow: an input outside the exact range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an unreadable or malformed fixture file, or one without a record the
    # command needs (e.g. plot fig7 on a fixture file without K5)
    except (FixtureError, FixtureLookupError) as exc:
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
