"""Fixture files are input: every command that reads one keeps the exit contract.

A hypothesis strategy builds files the loader accepts: systems of arms
from random (a, b, c) with a >= 1, 3a + b >= 1 and f(1) >= 1 (the arm
contract), coefficients up to 2^70 so that density meets its 2^63 limit,
printed fits 2-4 that are fit 1 re-indexed or perturbed, P and N
rotations, and window and k5ref records on defined arms.  Some files then
get one field replaced.  Each fixture-reading command runs on the file in
process through cli.main, and exits 0 or 1 with nothing on stderr, or 2
with one error line; no exception escapes main.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_corpus import run
from rootspiral.fixtures import TABLE_PREFIXES, WINDOW_LABELS, load_fixtures, parse_fixtures
from rootspiral.quad import QuadPoly, shift

# names the commands look up: table prefixes, K5 for plot fig7, and the
# Euler split that verify-tables checks in table 7
SYSTEMS = ("P18-A", "P18-B", "N20-G", "P20-G", "N22-K", "N22-Q", "NS-P41", "SQ-P41")
ARMS = ("A1", "B3", "G1", "K5", "Q3", "P+41", "P+41A", "P+41B", "P+41C")
COEFFICIENT = 2**70
# what a one-field mutation writes: empty, non-integer, boundary and wrong-kind values
TOKENS = ("", "x", "-1", "0", "1", "2", "P", "N", "Q", "start", "2.5e9", "18", "9",
          str(2**63), str(-(2**63)), "1,2,3,4,5,6", "K5", "A/B", " 7")


@st.composite
def arm_fields(draw, a: int) -> list[str]:
    """b, c of four fits and the six terms of one arm with lead a."""
    b = draw(st.integers(1 - 3 * a, COEFFICIENT))
    fit1 = QuadPoly(a, b, draw(st.integers(1 - a - b, max(1 - a - b, COEFFICIENT))))
    fields = [fit1.b, fit1.c]
    for m in (1, 2, 3):
        fit = shift(fit1, m)
        if draw(st.booleans()):  # a misprinted fit: verify-tables names it and exits 1
            fit = QuadPoly(a, fit.b + draw(st.integers(-3, 3)), fit.c + draw(st.integers(1, 9)))
        fields += [fit.b, fit.c]
    return [*map(str, fields), ",".join(str(fit1(x)) for x in range(1, 7))]


@st.composite
def fixture_files(draw) -> tuple[str, list[tuple[str, str]]]:
    """The text of a fixture file the loader accepts, and its (system, arm) names."""
    lines, names = [], []
    for system in draw(st.lists(st.sampled_from(SYSTEMS), min_size=1, max_size=3, unique=True)):
        kind = draw(st.sampled_from(["arm", "extra"]))
        rotation = draw(st.sampled_from("PN"))
        a = draw(st.integers(1, COEFFICIENT))
        for arm in draw(st.lists(st.sampled_from(ARMS), min_size=1, max_size=3, unique=True)):
            lines.append([kind, system, arm, rotation, str(2 * a), str(a),
                          *draw(arm_fields(a))])
            names.append((system, arm))
    for _ in range(draw(st.integers(0, 3))):
        system, arm = draw(st.sampled_from(names))
        if draw(st.booleans()):
            lines.append(["window", system, arm, draw(st.sampled_from(WINDOW_LABELS)),
                          str(draw(st.integers(1, 10**6))), str(draw(st.integers(1, 37)))])
        else:
            lines.append(["k5ref", system, arm, str(draw(st.integers(1, 30))),
                          str(draw(st.integers(1, 10**6))), "7^2"])
    draw(st.randoms()).shuffle(lines)  # a window may precede its arm
    return "".join("\t".join(line) + "\n" for line in lines), names


@st.composite
def mutated(draw, files) -> tuple[str, list[tuple[str, str]]]:
    """A file from files, with one field of one record replaced."""
    text, names = draw(files)
    lines = [line.split("\t") for line in text.splitlines()]
    line = draw(st.sampled_from(lines))
    line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(TOKENS))
    return "".join("\t".join(line) + "\n" for line in lines), names


def commands(names, arm=0, other=None, at="start", which=None, n=300) -> list[list[str]]:
    """The fixture-reading commands on the arms names[arm] and names[other];
    verify-tables checks the table of the first arm's system by default."""
    system, name = names[arm % len(names)]
    qualified = f"{system}/{name}"
    if which is None:
        which = next(t for t, prefixes in TABLE_PREFIXES.items() if system.startswith(prefixes))
    factors = ["factors", "--window", "1..6"]
    if other is not None:
        factors += ["--compare", "/".join(names[other % len(names)])]
    return [
        ["verify-tables", "--which", which],
        [*factors, "--", qualified],
        ["density", "--at", at, "--", qualified],
        ["residues", "--", name],  # bare: ambiguous when two systems share it
        ["plot", "arms", f"--system={system}", "--n", str(n), "--out", "{tmp}/arms.svg"],
        ["plot", "fig7", "--n", str(n), "--out", "{tmp}/fig7.svg"],
    ]


@st.composite
def fixture_runs(draw) -> tuple[str, list[list[str]]]:
    """A fixture file, valid or with one field mutated, and the commands to run on it."""
    text, names = draw(fixture_files() | mutated(fixture_files()))
    argvs = commands(
        names,
        arm=draw(st.integers(0, 8)),
        other=draw(st.none() | st.integers(0, 8)),
        at=draw(st.sampled_from(WINDOW_LABELS)),
        which=draw(st.sampled_from([None, "all"])),
        n=draw(st.integers(1, 300)),
    )
    return text, [["--json", *argv] if draw(st.booleans()) else argv for argv in argvs]


@settings(max_examples=40, deadline=None)
@given(case=fixture_files())
def test_drawn_files_are_accepted_and_define_their_names(case):
    text, names = case
    fx = parse_fixtures(text)
    assert sorted((s.name, a.name) for s in fx.systems + fx.extras for a in s.arms) == sorted(names)


# the two files on which plot arms once ended in a math domain error: values
# below 0 from x = 1, and a falling arm (a < 0, so d2 = -18)
NEGATIVE = ("arm\tP18-A\tA1\tP\t18\t9\t-200\t-5000\t0\t0\t0\t0\t0\t0"
            "\t-5191,-5364,-5519,-5656,-5775,-5876\n")
FALLING = "arm\tP18-A\tA1\tP\t-18\t-9\t3\t41\t0\t0\t0\t0\t0\t0\t35,11,-31,-91,-169,-265\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fixture-fuzz")


@settings(max_examples=60, deadline=None)
@given(case=fixture_runs())
@example(case=(NEGATIVE, commands([("P18-A", "A1")])))
@example(case=(FALLING, commands([("P18-A", "A1")])))
def test_fixture_file_commands_exit_0_1_or_2_with_one_error_line(fuzz_dir, case):
    text, argvs = case
    path = fuzz_dir / "fixture.tsv"
    path.write_text(text, encoding="utf-8")
    load_fixtures.cache_clear()  # the path is the cache key, and its text changed
    for argv in argvs:
        argv = ["--fixture-file", str(path), *(arg.replace("{tmp}", str(fuzz_dir)) for arg in argv)]
        code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 2:
            assert out == ""
            assert len(err.splitlines()) == 1, err
            assert err.startswith(("error: ", "fixture error: ")), err
        else:
            assert err == "", err
