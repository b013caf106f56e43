"""The CLI byte corpus: invocations whose exit code, stdout and stderr are pinned.

cli_corpus.txt, next to this file, holds one line per invocation: the
sha256 of its exit code, stdout and stderr, run in process through
rootspiral.cli.main, then the invocation.  test_cli.py's
test_cli_corpus_bytes_unchanged names every invocation whose bytes moved.
A change that moves bytes on purpose rewrites the file with

    python tests/cli_corpus.py

(which tests the package in this checkout's src/) and lists the moved
invocations in CHANGES.md.  constants, detect and plot stay out: their
bytes depend on the platform's libm and numpy.
"""

import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rootspiral.cli import main  # noqa: E402
from rootspiral.fixtures import TABLE_PREFIXES, load_fixtures  # noqa: E402

CORPUS = Path(__file__).with_name("cli_corpus.txt")
HEADER = "# sha256 of [exit code, stdout, stderr] as JSON, then the argv; python tests/cli_corpus.py rewrites this file\n"

# a square, a line, constants, the zero polynomial, gcd(a, b, c) > 1, each
# root-class case at small q, negative leads and terms, the compact form,
# and the largest coefficients a literal may have
LITERALS = (
    "1,0,0", "0,1,0", "0,0,5", "0,0,-3", "0,0,0", "30,60,90", "7,3,5", "30030,7,-1",
    "9,9,-1", "10,50,67", "-1,0,5", "0,1,5", "1,-10,0", "x^2+x+41",
    "9223372036854775807,9223372036854775807,9223372036854775807",
)

# run on every fixture arm and literal, placed after -- since a literal may start with -
PER_ARM = (
    ("residues", "--terms", "40"),
    ("factors", "--bound", "300", "--window", "1..30"),
    ("density", "--at", "start", "--len", "30"),
)

# the README's reports without transcendental floats, factors up to 9973
# (the largest prime root_classes scans) and on to 20 000, each root-class
# case at small q: every residue a root (30,60,90 at 2, 3 and 5, and 9973,0,0
# at 9973), none with q | a and b (30030,7,-1 at 7), one linear root (7,3,5
# at 7) and two roots (7,3,5 at 3 and 5), and the largest literal's root
# classes (2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657: every residue a
# root at 7, 73 and 127)
COMMANDS = (
    "verify-tables --which all",
    "factors B3 --bound 61",
    "factors B3 --bound 9973",
    "factors B3 --bound 20000",
    "factors 30,60,90 --bound 7",
    "factors 9973,0,0 --bound 10000",
    "factors 7,3,5 --bound 7",
    "factors 30030,7,-1 --bound 500",
    "factors Q3 --compare S1",
    "factors B3 --compare 0,0,0",
    "factors K5 --window 1..6",
    "residues Q3",
    "factors 9223372036854775807,9223372036854775807,9223372036854775807 --bound 300",
)


def invocations() -> list[tuple[str, ...]]:
    """Every pinned argv, each in text mode and with --json."""
    fx = load_fixtures()
    arms = [f"{s.name}/{a.name}" for s in fx.systems + fx.extras for a in s.arms]
    argvs = [(*command, "--", arm) for arm in (*arms, *LITERALS) for command in PER_ARM]
    argvs += [("density", f"{w.system}/{w.arm}", "--at", w.label) for w in fx.windows]
    argvs += [("verify-tables", "--which", table) for table in TABLE_PREFIXES]
    argvs += [tuple(command.split()) for command in COMMANDS]
    return [(*mode, *argv) for argv in argvs for mode in ((), ("--json",))]


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process run of main."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcome(argv: tuple[str, ...]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    return hashlib.sha256(json.dumps(run(list(argv))).encode()).hexdigest()


def read() -> dict[str, str]:
    """The committed corpus: shell-quoted argv -> sha256."""
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return {argv: sha for sha, argv in (line.split(" ", 1) for line in lines[1:])}


if __name__ == "__main__":
    CORPUS.write_text(
        HEADER + "".join(f"{outcome(argv)} {shlex.join(argv)}\n" for argv in invocations()),
        encoding="utf-8",
    )
