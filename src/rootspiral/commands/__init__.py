"""Subcommand handlers, one module per command, and the helpers they share.

Each handler module is named after its subcommand, with - as _, and
defines ``run(args) -> Report``.  rootspiral.cli imports only the handler
of the command it runs, so a process compiles the parser plus one handler.
Only the handlers that read the fixture set call
``load_fixtures(args.fixture_file)``; main reports its FixtureError.
Handlers import what they share from here, never from rootspiral.cli:
under ``python -m rootspiral.cli`` that module runs as __main__, so
importing it would compile it a second time and define a second
SystemExit2, which main does not catch.
"""

import argparse

from ..fixtures import FixtureLookupError, FixtureSet
from ..quad import QuadPoly

# constants --k default and the least k given a c2 verdict: the end of
# spiral's exact prefix table (spiral._N0), where estimate_c2 costs O(1)
C2_VERDICT_K = 4096


class SystemExit2(Exception):
    """Usage/configuration error: exits with status 2."""


def window_bounds(text: str) -> tuple[int, int]:
    """An index window 'lo:hi' or 'lo..hi' (hi exclusive) as (lo, hi)."""
    try:
        lo, hi = (int(v) for v in text.split(".." if ".." in text else ":", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must be lo:hi or lo..hi, got {text!r}") from None
    return lo, hi


def resolve_poly(fx: FixtureSet, text: str) -> tuple[str, QuadPoly]:
    """An arm name from the fixtures, or literal coefficients 'a,b,c'.

    A fixture arm is named 'SYSTEM/ARM'; a literal is named by its text
    without surrounding whitespace, which never holds a '/'.
    """
    try:
        system, arm = fx.find_arm(text)
        return f"{system.name}/{arm.name}", arm.poly
    except FixtureLookupError as exc:
        lookup_error = exc
    try:
        return text.strip(), QuadPoly.parse(text)
    except ValueError as exc:
        raise SystemExit2(f"not an arm or polynomial: {lookup_error.args[0]}; {exc}") from None
