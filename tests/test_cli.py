"""CLI: subcommand behaviour, exit codes, deterministic output."""

import hashlib
import itertools
import json

import pytest

from rootspiral.cli import _first_reaching, main
from rootspiral.quad import QuadPoly


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

    def test_json_schema(self, capsys):
        code, out = run(capsys, "--json", "constants", "--k", "1000")
        payload = json.loads(out)
        assert payload["schema_version"] == 1
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
        assert "[FAIL] P18-A/A1" in out


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

    def test_window_dotdot_syntax(self, capsys):
        code, out = run(capsys, "factors", "K5", "--bound", "37", "--window", "1..6")
        assert code == 0
        assert "5,289,17" in out

    def test_literal_coefficients(self, capsys):
        code, out = run(capsys, "factors", "9,9,-1", "--bound", "13")
        assert code == 0
        assert "13" in out


class TestDensity:
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

    def test_d8_family_literal(self, capsys):
        code, out = run(capsys, "residues", "10,50,67")
        assert code == 0
        assert "ending_cycle: [7]" in out


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
            ("residues", "Q3", "--terms", "10001"),
            ("residues", "Q3", "--terms", "4"),
            ("plot", "ulam", "--n", "200001"),
            ("density", "0,0,5", "--at", "2.5e6"),  # never reaches the target
            ("--threads", "2", "constants"),
            ("constants", "--threads", "2"),
            ("--seed", "1", "constants"),
            ("detect", "--seed", "1", "--seed-n", "17", "--d2", "18"),
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


def test_reports_byte_identical_across_runs(capsys):
    _, first = run(capsys, "--json", "density", "B3", "--at", "2.5e9")
    _, second = run(capsys, "--json", "density", "B3", "--at", "2.5e9")
    assert first == second
