"""Process floor: each command loads only the modules it uses.

A process imports the parser and the one handler module of its command,
rootspiral.commands.<name>, and only the commands that read the fixture
set parse it.  The sqrt-spiral, arms and number-spiral plots take their
primes from the sieve module, without factorlab.

Commands that stream no angle sum run without numpy: placing a point on the
spiral reads its angle from a closed form, locating the next wind bisects
closed-form spans, and a direct sum below 4096 reads the exact prefix
table, so the default constants and the README detect need no numpy
either.  The package namespace imports a submodule only when one of its
names is first used.  Records are NamedTuples, so no command loads
dataclasses (6-9 ms with the inspect module it imports); only numpy, in
the commands that stream angle sums past 4096, loads inspect.  Only the
library's composite-curve functions build a Fraction, so no command loads
fractions (with the decimal and numbers modules it imports, ~3 ms).  No
module imports __future__: on Python 3.10 and later every annotation in the
package evaluates at import.  The fixture loader reads the shipped file with
open and the commands write with open, so no command loads pathlib or
importlib.resources: under python -S, where site preloads nothing, each
command prints what it prints with site and loads neither.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootspiral

SRC = str(Path(rootspiral.__file__).resolve().parents[1])

# Runs rootspiral.cli.main on the arguments in a fresh interpreter, then
# lists on the second-to-last line of stderr the rootspiral submodules, numpy,
# dataclasses, inspect, fractions, __future__, pathlib and importlib.resources,
# where imported, prints on the last line how many fixture sets were parsed,
# and exits with main's code.
RUN_CLI = """
import sys
from rootspiral.cli import main
from rootspiral.fixtures import load_fixtures
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules
              if m in ("numpy", "dataclasses", "inspect", "fractions", "__future__",
                       "pathlib", "importlib.resources")
              or m.startswith("rootspiral.")),
      file=sys.stderr)
print(load_fixtures.cache_info().misses, file=sys.stderr)
sys.exit(code)
"""

# Every command shape; the README commands and the other three plots.
COMMANDS = [
    ("constants",),
    ("detect", "--seed-n", "17", "--d2", "18", "--length", "6"),
    ("verify-tables", "--which", "all"),
    ("factors", "B3", "--bound", "61"),
    ("factors", "Q3", "--compare", "S1"),
    ("factors", "K5", "--window", "1..6"),
    ("density", "B3", "--at", "2.5e9"),
    ("residues", "Q3"),
    ("plot", "ulam", "--n", "2000", "--out", "ulam.svg"),
    ("plot", "number-spiral", "--n", "500", "--out", "number-spiral.svg"),
    ("plot", "sqrt-spiral", "--n", "5000", "--out", "sqrt-spiral.svg"),
    ("plot", "arms", "--system", "P18-A", "--n", "5000", "--out", "arms.svg"),
    ("plot", "fig7", "--n", "5000", "--out", "fig7.svg"),
]
# The commands that never read the fixture set.
FIXTURE_FREE = {"constants", "detect", "sqrt-spiral", "ulam", "number-spiral"}

# The names rootspiral exports, each checked against the module that defines it.
PUBLIC = """
    admissible_primes density_scan detect_arm_chain factorize is_prime root_classes
    same_splitting load_fixtures composite_factor composite_params ns_polar
    pronic_triangle_angle sqrt_spiral_counterparts ulam_coord ArmSystem QuadPoly
    decimate newton_fit shift digit_sum digit_sum_gaps
    divisibility_positions residue_cycle six_classify C2 SpiralPoint
    angle_between angle_increment estimate_c2 polar_of square_arm_angle total_angle winding_gap
""".split()

# In a fresh interpreter, so that each name goes through the lazy first access:
# prints every exported name that is not the object its module defines, and
# every such module that rootspiral.<module> does not reach.
RESOLVE = """
import importlib
import rootspiral
for module, names in rootspiral._EXPORTS.items():
    if getattr(rootspiral, module) is not importlib.import_module(f"rootspiral.{module}"):
        print(module)
    for name in names:
        if getattr(rootspiral, name) is not getattr(
                importlib.import_module(f"rootspiral.{module}"), name):
            print(name)
"""


def run_python(script, *args, cwd, flags=()):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *flags, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def run_cli(tmp_path, argv, flags=()) -> tuple[str, set[str], int]:
    """The stdout of a successful run of the command under the interpreter
    flags, the modules RUN_CLI lists after it, and the number of fixture sets
    it parsed."""
    proc = run_python(RUN_CLI, "--json", *argv, cwd=tmp_path, flags=flags)
    assert proc.returncode == 0, proc.stderr
    *_, modules, parses = proc.stderr.splitlines()
    return proc.stdout, set(modules.split()), int(parses)


def test_import_and_fixture_load_leave_numpy_out(tmp_path):
    script = "import sys, rootspiral; rootspiral.load_fixtures(); print('numpy' in sys.modules)"
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_closed_form_angles_leave_numpy_out(tmp_path):
    script = (
        "import sys; from rootspiral import spiral;"
        " spiral.winding_gap(10**6); spiral.total_angle(10**9); print('numpy' in sys.modules)"
    )
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_with_fixtures_loads_only_four_modules(tmp_path):
    # the parser, the shared handler helpers and the fixture loader; no handler
    # and no report until main runs a command
    script = (
        "import sys, rootspiral.cli; rootspiral.cli.load_fixtures();"
        " print(*sorted(m for m in sys.modules if m.startswith('rootspiral.')"
        " or m in ('dataclasses', 'inspect')))"
    )
    proc = run_python(script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "rootspiral.cli", "rootspiral.commands", "rootspiral.fixtures", "rootspiral.quad"
    ]


@pytest.fixture(scope="module")
def command_run(tmp_path_factory):
    """run_cli, launched once per COMMANDS entry and interpreter flags; the
    tests below read the same run."""
    runs = {}

    def run(argv, flags=()):
        if (argv, flags) not in runs:
            runs[argv, flags] = run_cli(tmp_path_factory.mktemp("cli"), argv, flags)
        return runs[argv, flags]

    return run


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_commands_without_angle_sums_leave_numpy_out(command_run, argv):
    _, loaded, _ = command_run(argv)
    assert not loaded & {"numpy", "dataclasses", "inspect", "fractions", "__future__"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_each_command_loads_one_handler_and_parses_fixtures_only_if_it_reads_them(
    command_run, argv
):
    _, loaded, parses = command_run(argv)
    handlers = {m for m in loaded if m.startswith("rootspiral.commands.")}
    assert handlers == {f"rootspiral.commands.{argv[0].replace('-', '_')}"}
    kind = argv[1] if argv[0] == "plot" else argv[0]
    assert parses == (0 if kind in FIXTURE_FREE else 1)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_commands_without_site_match_the_site_run_and_load_no_pathlib(command_run, argv):
    # python -S puts no site-packages on the path and runs no .pth file, so
    # nothing preloads pathlib or importlib.resources, and numpy is out of
    # reach: run_cli's exit-0 check shows that no command needs it
    out, loaded, _ = command_run(argv, ("-S",))
    assert out == command_run(argv)[0]
    assert not loaded & {"pathlib", "importlib.resources"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("factors", "Q3", "--compare", "S1", "--window", "1..6"),
         ("residues", "spiral", "svgplot", "numberspiral")),
        (("density", "B3", "--at", "2.5e9"), ("spiral", "svgplot", "numberspiral")),
        (("residues", "Q3"), ("factorlab", "spiral", "svgplot", "numberspiral")),
        (("constants", "--k", "5000"), ("factorlab", "residues", "svgplot", "numberspiral")),
        (("verify-tables", "--which", "all"), ("factorlab", "spiral", "svgplot")),
        (("plot", "ulam", "--n", "2000", "--out", "ulam.svg"), ("spiral",)),
        (("plot", "number-spiral", "--n", "500", "--out", "number-spiral.svg"), ("spiral",)),
    ],
    ids=" ".join,
)
def test_commands_leave_unused_modules_out(tmp_path, argv, unused):
    _, loaded, _ = run_cli(tmp_path, argv)
    assert not loaded & {f"rootspiral.{module}" for module in unused}
    assert not loaded & {"dataclasses", "fractions", "__future__"}
    # numpy 2 imports inspect itself (numpy._core.overrides); nothing else may
    assert "inspect" not in loaded or "numpy" in loaded


@pytest.mark.parametrize("what", ["sqrt-spiral", "arms", "number-spiral"])
def test_sieve_plots_leave_factorlab_out(tmp_path, what):
    # they mark primes from rootspiral.sieve; only plot ulam tests each index
    _, loaded, _ = run_cli(tmp_path, ("plot", what, "--system", "P18-A", "--out", f"{what}.svg"))
    assert "rootspiral.sieve" in loaded
    assert "rootspiral.factorlab" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "--k", "5000"),
        ("constants", "--k", "3000000"),
        ("detect", "--seed-n", "1000000", "--d2", "20", "--length", "50"),
    ],
    ids=" ".join,
)
def test_commands_with_angle_sums_still_run(tmp_path, argv):
    _, loaded, _ = run_cli(tmp_path, argv)
    assert "numpy" in loaded  # spans reaching past the prefix table are streamed
    assert not loaded & {"dataclasses", "fractions", "__future__"}
    # numpy 2 imports inspect itself (numpy._core.overrides); nothing else may
    assert "inspect" not in loaded or "numpy" in loaded


def test_public_names_resolve_to_their_modules(tmp_path):
    assert sorted(rootspiral.__all__) == sorted([*PUBLIC, "__version__"])
    proc = run_python(RESOLVE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_namespace_lists_and_binds_every_public_name():
    assert set(rootspiral.__all__) <= set(dir(rootspiral))
    namespace = {}
    exec("from rootspiral import *", namespace)
    assert set(rootspiral.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rootspiral.no_such_name
