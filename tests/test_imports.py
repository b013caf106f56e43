"""Process floor: commands that never sum a spiral angle run without numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootspiral

SRC = str(Path(rootspiral.__file__).resolve().parents[1])

# Runs rootspiral.cli.main on the arguments in a fresh interpreter, then
# reports on stderr whether numpy was imported and exits with main's code.
RUN_CLI = """
import sys
from rootspiral.cli import main
code = main(sys.argv[1:])
print("numpy loaded" if "numpy" in sys.modules else "numpy absent", file=sys.stderr)
sys.exit(code)
"""


def run_python(script, *args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_and_fixture_load_leave_numpy_out(tmp_path):
    script = "import sys, rootspiral; rootspiral.load_fixtures(); print('numpy' in sys.modules)"
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-tables", "--which", "all"),
        ("factors", "B3", "--bound", "61"),
        ("factors", "Q3", "--compare", "S1"),
        ("factors", "K5", "--window", "1..6"),
        ("density", "B3", "--at", "2.5e9"),
        ("residues", "Q3"),
        ("plot", "ulam", "--n", "2000", "--out", "ulam.svg"),
        ("plot", "number-spiral", "--n", "500", "--out", "number-spiral.svg"),
    ],
    ids=" ".join,
)
def test_commands_without_angle_sums_leave_numpy_out(tmp_path, argv):
    proc = run_python(RUN_CLI, "--json", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "numpy absent"


@pytest.mark.parametrize(
    "argv",
    [("constants", "--k", "5000"), ("detect", "--seed-n", "17", "--d2", "18", "--length", "6")],
    ids=" ".join,
)
def test_commands_with_angle_sums_still_run(tmp_path, argv):
    proc = run_python(RUN_CLI, "--json", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
