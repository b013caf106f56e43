"""The compare command on synthetic result files."""

import json

import compare


ENV = {"commit": "abc", "nproc": 2, "cpu_model": "cpu", "python": "3.11.7", "numpy": "2.4.6"}


def write_results(directory, scale_wall, failed_frac=0.0):
    directory.mkdir()
    for seed in range(1, 11):
        jitter = 1.0 + 0.01 * (seed % 3)
        result = {
            "workload": "arm-census", "seed": seed, "trace": 0, "environment": ENV,
            "end_to_end": {"setup_s": 0.25 * jitter, "wall_s": 7.0 * jitter * scale_wall,
                           "op_p50_s": 0.17 * jitter, "op_tail_s": 0.19 * jitter,
                           "peak_rss_mb": 39.3, "terms_per_s": 95000.0 / (jitter * scale_wall),
                           "failed_frac": failed_frac},
        }
        (directory / f"arm-census-seed{seed}-trace0.json").write_text(json.dumps(result))
    traced = {"workload": "arm-census", "seed": 1, "trace": 1, "environment": ENV,
              "per_layer": {"quad.s": 0.0}}
    (directory / "arm-census-seed1-trace1.json").write_text(json.dumps(traced))


def verdicts(parent, change):
    rows = compare.compare_rows(compare.load([str(parent)]), compare.load([str(change)]),
                                compare.metric_rules())
    return {r["metric"]: (r["verdict"], r["wins"], r["pairs"]) for r in rows}


def test_faster_change_is_improved_on_wall_and_terms_only(tmp_path):
    write_results(tmp_path / "parent", 1.0)
    write_results(tmp_path / "change", 0.7)
    got = verdicts(tmp_path / "parent", tmp_path / "change")
    assert got["wall_s"] == ("improved", 10, 10)
    assert got["terms_per_s"] == ("improved", 10, 10)
    assert got["setup_s"][0] == got["peak_rss_mb"][0] == got["failed_frac"][0] == "no worse"


def test_slower_change_and_new_failures_are_worse(tmp_path):
    write_results(tmp_path / "parent", 1.0)
    write_results(tmp_path / "change", 1.5, failed_frac=0.1)
    got = verdicts(tmp_path / "parent", tmp_path / "change")
    assert got["wall_s"][0] == "worse"
    assert got["terms_per_s"][0] == "worse"
    assert got["failed_frac"][0] == "worse"
    assert got["op_p50_s"][0] == "no worse"


def test_summary_reads_both_kinds_of_result(tmp_path):
    write_results(tmp_path / "runs", 1.0)
    assert compare.summary(compare.load([str(tmp_path / "runs")]))["arm-census"]["seeds"] == list(
        range(1, 11))
    assert compare.load([str(tmp_path / "runs")], trace=1) == {"arm-census": {1: {"quad.s": 0.0}}}
    assert compare.machine([str(tmp_path / "runs")])["commit"] == ["abc"]
