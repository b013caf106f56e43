"""CLI: subcommand behaviour, exit codes, deterministic output."""

import argparse
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import cli_corpus
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootspiral
from rootspiral import factorlab, spiral
from rootspiral.cli import _window, build_parser, main
from rootspiral.commands.density import _first_reaching
from rootspiral.fixtures import SHIPPED_PATH, load_fixtures
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
        bad = tmp_path / "bad.tsv"
        for record, message in [
            (A1_RECORD.replace("\tP\t", "\tQ\t", 1), "P18-A/A1: rotation must be P or N"),
            (A1_RECORD.rsplit("\t", 1)[0] + "\n", "arm record needs 15 fields, got 14"),
            ("k5ref\tN22-K\tK5\t2\t49\n", "k5ref record needs 6 fields, got 5"),
        ]:
            bad.write_text("# header\n" + record, encoding="utf-8")
            code = main(["--fixture-file", str(bad), "verify-tables", "--which", "6A"])
            err = capsys.readouterr().err
            assert code == 2
            assert err.count("line ") == 1 and f"line 2: {message}" in err
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
            "[FAIL] P18-A/A1  fit 2 is 9x^2 + 23x + 5, fit 1 re-indexed by 1 is 9x^2 + 21x + 5\n"
        ) in out
        assert "[FAIL] P18-A coefficient rules  A1:fit 2\n" in out
        assert "table 6A: 0/1 arms pass" in out

    @pytest.mark.parametrize("fit, printed, fields, rebuilt", [
        (3, "9x^2 + 39x + 40", ("39", "40"), "9x^2 + 39x + 35"),  # c is not the preceding term
        (4, "9x^2 + 55x + 83", ("55", "83"), "9x^2 + 57x + 83"),  # b steps by 16, not d2
    ], ids=["wrong-c", "wrong-b"])
    def test_one_wrong_fit_is_the_only_one_named(
        self, capsys, tmp_path, fit, printed, fields, rebuilt
    ):
        record = A1_RECORD.split("\t")
        record[4 + 2 * fit: 6 + 2 * fit] = fields
        bad = tmp_path / "bad.tsv"
        bad.write_text("\t".join(record), encoding="utf-8")
        code = main(["--fixture-file", str(bad), "verify-tables", "--which", "6A"])
        out = capsys.readouterr().out
        assert code == 1
        assert (
            f"[FAIL] P18-A/A1  fit {fit} is {printed}, fit 1 re-indexed by {fit - 1} is {rebuilt}\n"
        ) in out
        assert f"[FAIL] P18-A coefficient rules  A1:fit {fit}\n" in out

    def test_even_b_arm_fails_its_mod10_period(self, capsys, tmp_path):
        # 9x^2 + 4x - 7 keeps the coefficient rules, but with b even its endings
        # repeat every 10 terms, not the 5 the paper claims for its arms
        even = tmp_path / "even.tsv"
        even.write_text(
            "arm\tP18-A\tA1\tP\t18\t9\t4\t-7\t22\t6\t40\t37\t58\t86\t6,37,86,153,238,341\n",
            encoding="utf-8",
        )
        code = main(["--fixture-file", str(even), "verify-tables", "--which", "6A"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] P18-A/A1  mod-10 period 10\n" in out
        assert "[PASS] P18-A coefficient rules\n" in out

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

    def test_every_residue_prime_prints_all(self, capsys):
        # 999983 divides every value, so each residue is a root; listing them
        # would print ~7 MB for that one row
        code, out = run(capsys, "factors", "999983,0,0", "--bound", "1000000")
        assert code == 0
        assert "\n999983,all,1\n" in out
        assert "\n2,0,2\n" in out  # a prime not dividing 999983 keeps its root list
        assert len(out) < 2_000_000


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
        # a literal is named by its text without the whitespace around it
        for literal in ("-1,0,5", " -1,0,5 "):
            code, out = run(capsys, "--json", "density", "--at", "start", "--", literal)
            assert code == 0
            payload = json.loads(out)
            assert payload["inputs"]["arm"] == "-1,0,5"
            assert "3,-4,0,,,-5,-2" in payload["data"]["csv"].splitlines()

    def test_negative_leading_literal_after_double_dash(self, capsys):
        code, out = run(capsys, "--json", "density", "--at", "start", "--", "-1,0,5000000")
        assert code == 0
        assert json.loads(out)["data"]["csv"].splitlines()[1].startswith("1,4999999,")

    def test_target_past_10_to_the_8_is_searched(self, capsys):
        code, out = run(capsys, "--json", "density", "0,1,0", "--at", "2.5e9")
        assert code == 0
        assert json.loads(out)["data"]["csv"].splitlines()[1].startswith("2500000000,2500000000,")

    def test_target_never_reached_names_the_searched_bound(self, capsys):
        assert main(["density", "0,0,5", "--at", "2.5e6"]) == 2
        assert capsys.readouterr().err == "error: 0,0,5 never reaches 2.5e6 for x <= 2^62\n"

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
        assert "\nvalues: [17, 53, 107, 179, 269, 377]\n" in out  # the chain, not a candidate

    def test_no_chain_is_a_failed_check(self, capsys, monkeypatch):
        def no_chain(seed, d2, length):
            raise factorlab.ChainNotFoundError(f"no chain from {seed} with d2 {d2}")

        monkeypatch.setattr(factorlab, "detect_arm_chain", no_chain)
        code, out = run(capsys, "--json", "detect", "--seed-n", "17", "--d2", "18")
        assert code == 1
        payload = json.loads(out)
        assert payload["data"] == {}
        assert [(c["name"], c["status"], c["detail"]) for c in payload["checks"]] == [
            ("chain", "fail", "no chain from 17 with d2 18")
        ]


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
        code, text = run(capsys, "plot", "number-spiral", "--n", "500", "--out", str(out), "--json")
        assert code == 0
        sha = hashlib.sha256(out.read_bytes()).hexdigest()
        assert sha == "d5d4bfce19399d804fe0442b30c973d78183fc9a5f885018c956643eec74af95"
        # the report describes the bytes on disk
        data = json.loads(text)["data"]
        assert (data["bytes"], data["sha256"]) == (len(out.read_bytes()), sha)

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

    def test_arms_with_fewer_than_two_values_draw_no_polyline(self, capsys, tmp_path):
        # up to 6, A1, A4 and A5 of P18-A have one value each and the others none
        out = tmp_path / "arms.svg"
        assert main(["plot", "arms", "--n", "6", "--system", "P18-A", "--out", str(out)]) == 0
        capsys.readouterr()
        svg = out.read_text()
        assert svg.count("<circle") == 6 and "<polyline" not in svg
        arms = next(s for s in load_fixtures().systems if s.name == "P18-A").arms
        assert [a.name for a in arms if a.poly(1) <= 6] == ["A1", "A4", "A5"]
        assert all(a.poly(2) > 6 for a in arms)

    def test_fig7(self, capsys, tmp_path):
        out = tmp_path / "f7.svg"
        assert main(["plot", "fig7", "--n", "600", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "polyline" in out.read_text()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0d048e2c84a28aaf9ed24e2e3bffcd0ced082eee40fc53edb932f0fcdf41eedc"
        )

    def test_point_budget(self, capsys, tmp_path):
        assert main(["plot", "sqrt-spiral", "--n", "100000", "--out", str(tmp_path / "s.svg")]) == 0
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
            # both window ends lie below 2^63; only the vertex at x = 2e9 passes it
            ("factors", "--bound", "7", "--window", "1999995000..2000005000",
             "--", "-1,4000000000,5223372036854775818"),
            ("plot", "arms", "--system", "NOPE"),
            ("factors", "0,0,0", "--bound", "10000000"),  # every residue a root of every prime
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
        with open(SHIPPED_PATH, encoding="utf-8") as fh:
            lines = fh.readlines()
        partial.write_text("".join(line for line in lines if drop not in line), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--fixture-file", str(partial), *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"fixture error: {message}\n"

    @pytest.mark.parametrize("record, poly", [
        ("arm\tP18-A\tA1\tP\t18\t9\t-200\t-5000\t0\t0\t0\t0\t0\t0"
         "\t-5191,-5364,-5519,-5656,-5775,-5876", "9x^2 - 200x - 5000"),
        ("arm\tP18-A\tA1\tP\t-18\t-9\t3\t41\t0\t0\t0\t0\t0\t0\t35,11,-31,-91,-169,-265",
         "-9x^2 + 3x + 41"),
    ], ids=["negative", "falling"])
    def test_arm_not_increasing_from_1_exits_2_for_plot_arms(self, capsys, tmp_path, record, poly):
        # plot arms places every arm value up to --n on the spiral by its square root
        bad = tmp_path / "bad.tsv"
        bad.write_text(record + "\n", encoding="utf-8")
        out = tmp_path / "arms.svg"
        code = main(["--fixture-file", str(bad), "plot", "arms", "--system", "P18-A",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == (
            f"fixture error: line 1: P18-A/A1: fit 1 is {poly}, "
            "not positive and increasing from x = 1\n"
        )

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

    @pytest.mark.parametrize("argv", FIXTURE_COMMANDS, ids=" ".join)
    def test_missing_fixture_file_exits_2_for_every_command_reading_it(
        self, capsys, tmp_path, argv
    ):
        missing, out = str(tmp_path / "missing.tsv"), tmp_path / "out"
        code = main(["--fixture-file", missing, *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err == f"fixture error: [Errno 2] No such file or directory: {missing!r}\n"

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


def test_cli_corpus_bytes_unchanged():
    pinned = cli_corpus.read()
    current = {shlex.join(argv): cli_corpus.outcome(argv) for argv in cli_corpus.invocations()}
    moved = sorted(argv for argv in pinned.keys() | current.keys()
                   if pinned.get(argv) != current.get(argv))
    assert not moved, (
        f"{len(moved)} invocations moved (python tests/cli_corpus.py rewrites the corpus):\n"
        + "\n".join(moved)
    )


def test_reports_byte_identical_across_runs(capsys):
    _, first = run(capsys, "--json", "density", "B3", "--at", "2.5e9")
    _, second = run(capsys, "--json", "density", "B3", "--at", "2.5e9")
    assert first == second


# the README's reports and density at every fixture window: each --json run
# is checked on its own against its corpus line, so a moved report names itself
PINNED_REPORTS = [
    *cli_corpus.COMMANDS,
    *(f"density {w.system}/{w.arm} --at {w.label}" for w in load_fixtures().windows),
]


@pytest.mark.parametrize("command", PINNED_REPORTS)
def test_json_report_bytes_are_pinned(command):
    argv = ("--json", *command.split())
    assert cli_corpus.outcome(argv) == cli_corpus.read()[shlex.join(argv)]


# The argv grammar, read from build_parser(): each subcommand's positionals
# and options, drawn from their choices and bounds.  Numbers are capped per
# option (dest -> largest value drawn inside the bound) so that every run
# takes milliseconds; the values just past each bound are drawn too.
SUBCOMMANDS = next(
    action for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
).choices
CAPS = {"k": 10**5, "bound": 2000, "len": 40, "terms": 2000, "seed_n": 10**4, "length": 12,
        "n": 300}
ARMS = st.sampled_from([
    "B3", "Q3", "K5", "G1", "P20-G1", "N20-G/G1", "ZZTOP", "0,0,0", "1,0,0", "-1,0,5",
    "30,60,90", "x^2+x+41", "1,2", "9223372036854775808,0,1", "9223372036854775809,0,0",
]) | st.text(max_size=6)
WINDOWS = st.builds(
    lambda lo, span, sep: f"{lo}{sep}{lo + span}",
    st.sampled_from([-5, 0, 1, 2, 1000, 10**9, 2**62, 2**63 - 3]),
    st.sampled_from([-1, 0, 1, 7, 25, 10**4 + 1]),
    st.sampled_from([":", ".."]),
) | st.sampled_from(["abc", "1:2:3", "5..", ""])
# {tmp} is the test's directory, holding bad.tsv, a malformed fixture file
PATHS = {
    "out": st.sampled_from(["{tmp}/out", "{tmp}/missing/out", "{tmp}"]),
    "fixture_file": st.sampled_from(["{tmp}/bad.tsv", "{tmp}/missing.tsv", "{tmp}"]),
}


def _values(action: argparse.Action) -> st.SearchStrategy[str]:
    if action.choices:
        return st.sampled_from([*map(str, action.choices), "bogus"])
    if action.type is _window:
        return WINDOWS
    if action.type is not None and action.type.__name__ == "integer":  # cli._int_at_least
        bounds = dict(zip(action.type.__code__.co_freevars,
                          (cell.cell_contents for cell in action.type.__closure__)))
        lo, hi = bounds["lowest"], bounds["highest"]
        inside = st.integers(lo, min(hi, CAPS[action.dest]))
        return (inside | st.sampled_from([lo - 1, hi + 1, 2**64])).map(str) | st.just("x")
    return ARMS  # an arm, --compare or plot's --system


@st.composite
def argvs(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    options, positionals = [], []
    for action in SUBCOMMANDS[name]._actions:
        if action.dest in ("help", "json", *PATHS):
            continue
        if not action.option_strings:
            positionals.append(draw(_values(action)))
        elif action.required or draw(st.booleans()):
            options += [action.option_strings[0], draw(_values(action))]
    flags = ["--json"] if draw(st.booleans()) else []
    for dest, paths in PATHS.items():
        # plot without --out would write into the working directory
        if (dest == "out" and name == "plot") or draw(st.booleans()):
            flags += [f"--{dest.replace('_', '-')}", draw(paths)]
    # the flags are legal before and after the subcommand
    before, after = (flags, []) if draw(st.booleans()) else ([], flags)
    return [*before, name, *options, *after, *(["--", *positionals] if positionals else [])]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "bad.tsv").write_text(MALFORMED_FIXTURE, encoding="utf-8")
    return tmp


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_0_1_or_2_and_names_an_error_in_one_line(argv_dir, argv):
    argv = [token.replace("{tmp}", str(argv_dir)) for token in argv]
    code, _, err = cli_corpus.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        # argparse prints its usage lines before the error line
        assert [line for line in lines if not line.startswith(("usage:", " "))] == lines[-1:], err
        assert "error: " in lines[-1]
    else:
        assert err == ""
