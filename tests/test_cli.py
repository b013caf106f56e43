"""CLI: subcommand behaviour, exit codes, deterministic output."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootspiral
from rootspiral import spiral
from rootspiral.cli import build_parser, main
from rootspiral.commands.density import _first_reaching
from rootspiral.fixtures import fixture_text
from rootspiral.quad import QuadPoly

A1_RECORD = "arm\tP18-A\tA1\tP\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n"
# A1 with rotation Q, a malformed record on line 2
MALFORMED_FIXTURE = "# header\n" + A1_RECORD.replace("\tP\t", "\tQ\t", 1)
SRC = str(Path(rootspiral.__file__).resolve().parents[1])

# the commands that read the fixture set, and those that never parse it
FIXTURE_COMMANDS = [
    ("verify-tables",),
    ("factors", "B3"),
    ("density", "B3"),
    ("residues", "B3"),
    ("plot", "arms", "--system", "P18-A", "--n", "50"),
    ("plot", "fig7", "--n", "50"),
]
FIXTURE_FREE_COMMANDS = [
    ("constants",),
    ("detect", "--seed-n", "17", "--d2", "18"),
    ("plot", "sqrt-spiral", "--n", "50"),
    ("plot", "ulam", "--n", "50"),
    ("plot", "number-spiral", "--n", "50"),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestConstants:
    def test_default_run_passes(self, capsys):
        code, out = run(capsys, "constants")
        assert code == 0
        assert "4 passed, 0 failed" in out

    def test_low_precision_is_informational(self, capsys):
        code, out = run(capsys, "constants", "--k", "100")
        assert code == 0
        assert "[info] c2-raw" in out
        assert "[PASS] winding-gap  winding_gap(1000000)" in out  # closed form at any k

    def test_default_k_is_the_prefix_table_end(self):
        assert build_parser().parse_args(["constants"]).k == spiral._N0

    def test_json_schema(self, capsys):
        code, out = run(capsys, "--json", "constants", "--k", "1000")
        payload = json.loads(out)
        assert payload["schema_version"] == 2
        assert payload["command"] == "constants"
        assert {c["name"] for c in payload["checks"]} >= {"square-arm-angle"}


class TestVerifyTables:
    def test_6a(self, capsys):
        code, out = run(capsys, "verify-tables", "--which", "6A")
        assert code == 0
        assert "table 6A: 36/36 arms pass" in out

    def test_all(self, capsys):
        code, out = run(capsys, "verify-tables", "--which", "all")
        assert code == 0
        for chunk in ("36/36", "33/33", "4/4"):
            assert chunk in out

    def test_table_7_includes_euler_split(self, capsys):
        code, out = run(capsys, "verify-tables", "--which", "7")
        assert code == 0
        assert "[PASS] euler-split" in out

    def test_corrupted_fixture_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "arm\tP18-A\tA1\tP\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,999\n",
            encoding="utf-8",
        )
        code = main(["--fixture-file", str(bad), "verify-tables", "--which", "6A"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1" in err

    def test_malformed_record_exits_2_with_its_line(self, capsys, tmp_path):
        bad = tmp_path / "rot.tsv"
        bad.write_text(
            "# header\n"
            "arm\tP18-A\tA1\tQ\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n",
            encoding="utf-8",
        )
        code = main(["--fixture-file", str(bad), "verify-tables", "--which", "6A"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("line ") == 1 and "line 2: " in err
        assert "Traceback" not in err

    def test_inconsistent_fits_exit_1_with_arm_named(self, capsys, tmp_path):
        # parseable record whose printed second fit disagrees with reindexing
        bad = tmp_path / "drift.tsv"
        bad.write_text(
            "arm\tP18-A\tA1\tP\t18\t9\t3\t-7\t23\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n",
            encoding="utf-8",
        )
        code = main(["--fixture-file", str(bad), "verify-tables", "--which", "6A"])
        out = capsys.readouterr().out
        assert code == 1
        assert (
            "[FAIL] P18-A/A1  b-step=d2: fit 1 -> 2 steps b by 20; "
            "b-step=d2: fit 2 -> 3 steps b by 16\n"
        ) in out
        assert "[FAIL] P18-A coefficient rules  A1:b-step=d2; A1:b-step=d2\n" in out
        assert "table 6A: 0/1 arms pass" in out

    @pytest.mark.parametrize("which", ["6B", "all"])
    def test_table_without_arms_exits_2(self, capsys, tmp_path, which):
        one = tmp_path / "one.tsv"
        one.write_text(A1_RECORD, encoding="utf-8")
        code = main(["--fixture-file", str(one), "verify-tables", "--which", which])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: fixture set has no table 6B arms\n"


class TestFactors:
    def test_b3_bound_61(self, capsys):
        code, out = run(capsys, "factors", "B3", "--bound", "61")
        assert code == 0
        assert "[13, 17, 23, 29, 43, 53, 61]" in out

    def test_q3_compare_s1(self, capsys):
        code, out = run(capsys, "factors", "Q3", "--compare", "S1", "--bound", "100")
        assert code == 0
        assert "identical" in out

    def test_k5_window_occurrences(self, capsys):
        code, out = run(capsys, "--json", "factors", "K5", "--bound", "37", "--window", "1:7")
        assert code == 0
        assert json.loads(out)["data"]["occurrence_csv"] == "\n".join([
            "index,value,smallest_prime_factor",
            "1,13,prime",
            "2,49,7",
            "3,107,prime",
            "4,187,11",
            "5,289,17",
            "6,413,7",
        ])

    def test_empty_window(self, capsys):
        code, out = run(capsys, "--json", "factors", "B3", "--window", "1:1")
        assert code == 0
        assert json.loads(out)["data"]["occurrence_csv"] == "index,value,smallest_prime_factor"

    def test_window_dotdot_syntax(self, capsys):
        code, out = run(capsys, "factors", "K5", "--bound", "37", "--window", "1..6")
        assert code == 0
        assert "5,289,17" in out

    def test_literal_coefficients(self, capsys):
        code, out = run(capsys, "factors", "9,9,-1", "--bound", "13")
        assert code == 0
        assert "13" in out


class TestDensity:
    def test_fixture_window_before_index_1_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "window.tsv"
        bad.write_text(
            "arm\tP18-B\tB3\tP\t18\t9\t9\t-1\t27\t17\t45\t53\t63\t107\t17,53,107,179,269,377\n"
            "window\tP18-B\tB3\tstart\t-5\t0\n",
            encoding="utf-8",
        )
        code = main(["--fixture-file", str(bad), "density", "B3", "--at", "start"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "line 2: window start_x must be >= 1" in err

    def test_fixture_window_past_the_scan_bound_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "window.tsv"
        bad.write_text(
            "arm\tP18-B\tB3\tP\t18\t9\t9\t-1\t27\t17\t45\t53\t63\t107\t17,53,107,179,269,377\n"
            "window\tP18-B\tB3\tstart\t1\t100000000\n",
            encoding="utf-8",
        )
        code = main(["--fixture-file", str(bad), "density", "B3", "--at", "start"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "line 2: window length must be <= 10000" in err

    def test_b3_25e9_window(self, capsys):
        code, out = run(capsys, "density", "B3", "--at", "2.5e9")
        assert code == 0
        assert "16667,2500250003,1,,17,300006,18" in out  # value, diff, d2 columns
        assert "16668,2500550027,0,29*2731*31573" in out

    def test_g1_25e9_window(self, capsys):
        code, out = run(capsys, "density", "P20-G1", "--at", "2.5e9")
        assert code == 0
        assert "16675,2780222773,0,23*2539*47609" in out

    def test_start_window_share(self, capsys):
        code, out = run(capsys, "density", "Q3", "--at", "start", "--len", "25")
        assert code == 0
        assert "prime-share" in out

    def test_non_fixture_arm_seeks_target(self, capsys):
        code, out = run(capsys, "density", "A3", "--at", "2.5e6", "--len", "3")
        assert code == 0
        assert ",18" in out  # second-difference column

    def test_literal_poly_starts_at_first_value_reaching_target(self, capsys):
        code, out = run(capsys, "--json", "density", "1,0,0", "--at", "2.5e6", "--len", "1")
        assert code == 0
        assert json.loads(out)["data"]["csv"].splitlines()[1].startswith("1582,2502724,")

    def test_negative_values_leave_digit_sum_empty(self, capsys):
        code, out = run(capsys, "--json", "density", "--at", "start", "--", "-1,0,5")
        assert code == 0
        assert "3,-4,0,,,-5,-2" in json.loads(out)["data"]["csv"].splitlines()

    def test_negative_leading_literal_after_double_dash(self, capsys):
        code, out = run(capsys, "--json", "density", "--at", "start", "--", "-1,0,5000000")
        assert code == 0
        assert json.loads(out)["data"]["csv"].splitlines()[1].startswith("1,4999999,")

    def test_first_reaching_matches_linear_search(self):
        limit = 40
        for a, b, c, target in itertools.product(
            (-2, -1, 0, 1, 3), (-31, -7, 0, 5), (-10, 0, 4), (-2000, -20, 0, 7, 50, 10**6)
        ):
            poly = QuadPoly(a, b, c)
            expected = next((x for x in range(1, limit + 1) if poly(x) >= target), None)
            assert _first_reaching(poly, target, limit) == expected, (poly, target)


class TestResidues:
    def test_q3(self, capsys):
        code, out = run(capsys, "residues", "Q3")
        assert code == 0
        assert "ending_alphabet: [1, 3, 7]" in out
        assert "cycle (1, 2, 3, 3)" in out

    @pytest.mark.parametrize(
        "arm, pattern", [("A3", "constant 3"), ("B3", "constant 9"), ("N20-D/D1", "cycle (1, 3, 3, 2)")]
    )
    def test_digit_sum_pattern(self, capsys, arm, pattern):
        assert main(["--json", "residues", arm]) == 0
        assert json.loads(capsys.readouterr().out)["data"]["sd_pattern"] == pattern

    def test_squares_digit_sum_cycle(self, capsys):
        code, out = run(capsys, "residues", "1,0,0")
        assert code == 0  # period 10 is reported, not judged: the squares are no arm of the paper
        assert "cycle (1, 3, 3, 2)" in out
        assert "[info] ending-period  mod-10 period 10" in out

    def test_fixture_arm_keeps_the_ending_period_verdict(self, capsys, tmp_path):
        assert main(["--json", "residues", "Q3"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["status"] for c in checks if c["name"] == "ending-period"] == ["pass"]
        squares = tmp_path / "squares.tsv"  # the squares as a fixture arm fail the claim
        squares.write_text(
            "arm\tSQ-A\tS1\tP\t2\t1\t0\t0\t2\t1\t4\t4\t6\t9\t1,4,9,16,25,36\n",
            encoding="utf-8",
        )
        assert main(["--fixture-file", str(squares), "--json", "residues", "S1"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["status"] for c in checks if c["name"] == "ending-period"] == ["fail"]

    @pytest.mark.parametrize("arm", ["0,1,5", "-1,0,1000"])
    def test_nonpositive_lead_leaves_pattern_na(self, capsys, arm):
        assert main(["--json", "residues", "--", arm]) == 0  # mod-10 period 10, reported
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["sd_ordered"] and data["sd_pattern"] == "n/a"

    def test_divisibility_uses_arm_indices(self, capsys):
        assert main(["--json", "residues", "K2"]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["divisible_by_3"] == [1]  # f(1) = 9

    def test_d8_family_literal(self, capsys):
        code, out = run(capsys, "residues", "10,50,67")
        assert code == 0
        assert "ending_cycle: [7]" in out

    @pytest.mark.parametrize(
        "arm, ending_cycle, code",
        [("1,-10,0", [1, 4, 9, 6, 5, 6, 9, 4, 1, 0], 0), ("0,0,-3", [7], 0)],
    )
    def test_negative_terms_leave_digit_sums_na(self, capsys, arm, ending_cycle, code):
        assert main(["--json", "residues", arm]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        data = json.loads(captured.out)["data"]
        assert data["sd_ordered"] == [] and data["sd_pattern"] == "n/a"
        assert data["ending_cycle"] == ending_cycle
        assert data["six_classes"] == ["n/a"] * 6


class TestDetect:
    def test_b3_chain(self, capsys):
        code, out = run(capsys, "detect", "--seed-n", "17", "--d2", "18", "--length", "6")
        assert code == 0
        assert "[17, 53, 107, 179, 269, 377]" in out


class TestPlot:
    def test_sqrt_spiral_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "sqrt-spiral", "--n", "300", "--out", str(a)]) == 0
        assert main(["plot", "sqrt-spiral", "--n", "300", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<?xml")
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "2335fbe9f6ea8a40b9903e2b274535098b78d91031610a7da4a03eabfd548a7b"
        )

    def test_ulam_2026_dots(self, capsys, tmp_path):
        out = tmp_path / "u.svg"
        assert main(["plot", "ulam", "--n", "2026", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4b5b6a521b523aa6f4d9dde30cfdf468d90b8ba209ca8f98e7e78e528d9faa8d"
        )

    def test_number_spiral(self, capsys, tmp_path):
        out = tmp_path / "ns.svg"
        assert main(["plot", "number-spiral", "--n", "500", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d5d4bfce19399d804fe0442b30c973d78183fc9a5f885018c956643eec74af95"
        )

    def test_arms_requires_system(self, capsys, tmp_path):
        code = main(["plot", "arms", "--n", "500", "--out", str(tmp_path / "x.svg")])
        assert code == 2

    def test_arms_overlay(self, capsys, tmp_path):
        out = tmp_path / "arms.svg"
        code = main(
            ["plot", "arms", "--n", "2000", "--system", "P18-A", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_text().count("<polyline") >= 12
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2e5ab19cbf58b355a29514741f2007485a651245277e63fe21e7b5d961fc6f9a"
        )

    def test_fig7(self, capsys, tmp_path):
        out = tmp_path / "f7.svg"
        assert main(["plot", "fig7", "--n", "600", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "polyline" in out.read_text()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0d048e2c84a28aaf9ed24e2e3bffcd0ced082eee40fc53edb932f0fcdf41eedc"
        )

    def test_point_budget(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:  # argparse rejects --n past 1e5
            main(["plot", "ulam", "--n", "100001", "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 2
        assert "must be <= 100000" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_unwritable_path(self, capsys):
        code = main(["plot", "ulam", "--n", "10", "--out", "/nonexistent-dir/x.svg"])
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_arm_is_config_error(self, capsys):
        assert main(["factors", "ZZTOP"]) == 2
        assert "not an arm" in capsys.readouterr().err

    def test_ambiguous_arm_is_config_error(self, capsys):
        assert main(["factors", "G1"]) == 2
        assert "ambiguous" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("factors", "B3", "--bound", "1"),
            ("factors", "B3", "--bound", "1000000000000"),
            ("factors", "B3", "--window", "abc"),
            ("factors", "B3", "--window", "1:2:3"),
            ("factors", "1,0,0", "--window", "3100000000:3100000002"),  # values pass 2^63
            ("constants", "--k", "1"),
            ("constants", "--k", "100000000000"),
            ("plot", "ulam", "--n", "-5"),
            ("detect", "--seed-n", "0", "--d2", "18"),
            ("detect", "--seed-n", "17", "--d2", "18", "--length", "100000000"),
            ("detect", "--seed-n", "100000000000000000000", "--d2", "18"),
            ("detect", "--seed-n", "1000000001", "--d2", "18"),
            ("detect", "--seed-n", "17", "--d2", "18", "--length", "1001"),
            ("density", "B3", "--len", "-3"),
            ("density", "B3", "--len", "10001"),
            ("density", "B3", "--len", "100000000"),
            ("factors", "B3", "--window", "1:10002"),
            ("factors", "B3", "--window", "5..100000000"),
            ("factors", "B3", "--window", "5:2"),
            ("factors", "B3", "--window=-5:3"),  # arms are indexed from 1
            ("factors", "B3", "--window", "0:3"),
            ("residues", "Q3", "--terms", "10001"),
            ("residues", "Q3", "--terms", "4"),
            ("plot", "ulam", "--n", "200001"),
            ("density", "0,0,5", "--at", "2.5e6"),  # never reaches the target
            ("--threads", "2", "constants"),
            ("constants", "--threads", "2"),
            ("--seed", "1", "constants"),
            ("detect", "--seed", "1", "--seed-n", "17", "--d2", "18"),
            pytest.param(("residues", "9" * 4299 + ",0,0", "--terms", "10"),
                         id="residues <4299 nines>,0,0 --terms 10"),
            ("residues", "9223372036854775809x^2+x+1", "--terms", "10"),  # a coefficient past 2^63
        ],
        ids=" ".join,
    )
    def test_bad_arguments_exit_2_without_traceback(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "error: " in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, target",
        [
            (("verify-tables", "--which", "6A"), "missing/r.txt"),  # no such directory
            (("density", "B3"), "."),  # a directory, not a file
        ],
        ids=["verify-tables into a missing directory", "density onto a directory"],
    )
    def test_unwritable_report_out_exits_2(self, capsys, tmp_path, argv, target):
        out = tmp_path / target
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize(
        "drop, argv, message",
        [
            ("K5", ("plot", "fig7"), "unknown arm 'K5'"),
            ("SQ-P41", ("verify-tables",), "no arm 'P+41A' in system 'SQ-P41'"),
        ],
        ids=["fig7 without K5", "verify-tables without the Euler split"],
    )
    def test_name_the_fixture_file_lacks_exits_2(self, capsys, tmp_path, drop, argv, message):
        partial = tmp_path / "partial.tsv"
        lines = fixture_text().splitlines(keepends=True)
        partial.write_text("".join(line for line in lines if drop not in line), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--fixture-file", str(partial), *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"fixture error: {message}\n"

    def test_second_record_for_an_arm_exits_2(self, capsys, tmp_path):
        twice = tmp_path / "twice.tsv"
        twice.write_text(A1_RECORD * 2, encoding="utf-8")
        code = main(["--fixture-file", str(twice), "factors", "A1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "fixture error: line 2: arm P18-A/A1 is already defined on line 1\n"
        )

    def test_k5ref_on_an_undefined_arm_exits_2(self, capsys, tmp_path):
        stray = tmp_path / "stray.tsv"
        stray.write_text(A1_RECORD + "k5ref\tP18-X\tB3\t2\t49\t7^2\n", encoding="utf-8")
        code = main(["--fixture-file", str(stray), "factors", "A1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "fixture error: line 2: k5ref names arm P18-X/B3, which is not defined\n"
        )

    def test_non_utf8_fixture_file_exits_2(self, capsys, tmp_path):
        binary = tmp_path / "binary.tsv"
        binary.write_bytes(b"\xff\xfe")
        code = main(["--fixture-file", str(binary), "residues", "B3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("fixture error: ")

    @pytest.mark.parametrize("argv", FIXTURE_COMMANDS, ids=" ".join)
    def test_malformed_fixture_file_exits_2_for_every_command_reading_it(
        self, capsys, tmp_path, argv
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_text(MALFORMED_FIXTURE, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--fixture-file", str(bad), *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("fixture error: line 2: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", FIXTURE_FREE_COMMANDS, ids=" ".join)
    def test_commands_without_fixtures_ignore_the_fixture_file(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.tsv"
        bad.write_text(MALFORMED_FIXTURE, encoding="utf-8")
        out = tmp_path / "out"
        results = []
        for fixture_args in ((), ("--fixture-file", str(bad))):
            code = main([*fixture_args, *argv, "--out", str(out)])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, out.read_bytes()))
        assert results[0] == results[1]
        assert results[0][0] == 0 and results[0][2] == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("factors", "NOPE"), "error: not an arm or polynomial: unknown arm 'NOPE'; "),
            (("--fixture-file", "bad.tsv", "factors", "B3"), "fixture error: line 2: "),
        ],
        ids=["usage error in a handler", "malformed fixture file"],
    )
    def test_python_m_errors_exit_2_with_one_line(self, tmp_path, argv, message):
        # main runs as __main__ here, so a handler module that imported
        # rootspiral.cli would raise a second SystemExit2 that main misses
        (tmp_path / "bad.tsv").write_text(MALFORMED_FIXTURE, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "rootspiral.cli", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message)


def test_reports_byte_identical_across_runs(capsys):
    _, first = run(capsys, "--json", "density", "B3", "--at", "2.5e9")
    _, second = run(capsys, "--json", "density", "B3", "--at", "2.5e9")
    assert first == second
