"""Self time and per-layer totals on synthetic spans, and the wrappers on rootspiral."""

import json
from pathlib import Path

import pytest

import run
import spans


def test_self_time_subtracts_union_of_direct_children():
    recorded = [
        ["cli.main", 0.0, 10.0, -1],
        ["factorlab.is_prime", 1.0, 3.0, 0],
        ["factorlab.is_prime", 2.0, 5.0, 0],  # overlaps the first child
        ["spiral.polar_of", 7.0, 8.0, 0],
        ["spiral.total_angle", 7.2, 7.8, 3],  # grandchild: not subtracted from cli.main
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 3.0, 0.4, 0.6])


def test_self_time_clips_children_to_the_parent():
    recorded = [["a.x", 0.0, 2.0, -1], ["b.y", 1.5, 4.0, 0]]
    assert spans.self_times(recorded) == pytest.approx([1.5, 2.5])


def test_summarize_counts_nested_same_name_and_layer_once():
    recorded = [
        ["bench.op", 0.0, 10.0, -1],
        ["factorlab.factorize", 1.0, 6.0, 0],
        ["factorlab.is_prime", 2.0, 3.0, 1],
        ["factorlab.factorize", 3.5, 4.5, 1],  # nested call of the same function
        ["quad.shift", 7.0, 9.0, 0],
    ]
    totals = spans.summarize(recorded)
    assert totals["factorlab.factorize.calls"] == 2
    assert totals["factorlab.factorize.s"] == pytest.approx(5.0)
    assert totals["factorlab.factorize.self_s"] == pytest.approx(3.0 + 1.0)
    assert totals["factorlab.layer_s"] == pytest.approx(5.0)
    assert totals["factorlab.layer_self_s"] == pytest.approx(5.0)
    assert totals["quad.layer_s"] == pytest.approx(2.0)
    assert totals["bench.layer_self_s"] == pytest.approx(3.0)
    # self times of every span add up to the root's duration
    assert sum(v for k, v in totals.items() if k.endswith(".layer_self_s")) == pytest.approx(10.0)


def test_adopt_hangs_foreign_spans_under_the_open_span():
    tracer = spans.Tracer()
    idx = tracer.open("bench.op", start=0.0)
    tracer.adopt([["import", 0.1, 0.2, -1], ["cli.main", 0.2, 0.9, -1],
                  ["report.to_json", 0.5, 0.6, 1]], {"x.y": 2})
    tracer.close(idx, end=1.0)
    recorded, counters = tracer.drain()
    assert [s[3] for s in recorded] == [-1, 0, 0, 2]
    assert counters == {"x.y": 2}
    assert spans.self_times(recorded)[0] == pytest.approx(0.2)


def test_install_wraps_every_reference_and_uninstall_restores():
    from rootspiral import factorlab, spiral, svgplot

    original = factorlab.is_prime
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert factorlab.is_prime is not original
        assert factorlab.factorize(2 * 3 * 1_000_003).factors == ((2, 1), (3, 1), (1_000_003, 1))
        spiral.angle_between(10, 25)
        svgplot.plot_ulam(9)
    finally:
        spans.uninstall(restore)
    assert factorlab.is_prime is original
    recorded, counters = tracer.drain()
    names = [s[0] for s in recorded]
    assert names[0] == "factorlab.factorize" and "factorlab.is_prime" in names
    inside = [s for s in recorded[1:] if s[2] <= recorded[0][2]]
    assert inside and all(parent == 0 for _, _, _, parent in inside)
    assert counters["spiral.angle_between.terms"] == 15
    assert counters["factorlab.is_prime.primes"] >= 4  # 1000003 and the primes up to 9
    assert counters["svgplot.plot_ulam.bytes"] > 0
    assert "numberspiral.ulam_coord" in names


def test_benchmark_json_matches_what_run_reports():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    walls = {False: [1.0, 1.1], True: [1.2]}
    layers = run.per_layer(walls, [{"factorlab.is_prime.calls": 4.0}], {})
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    e2e = {m["name"] for m in declared["end_to_end"]}
    assert "setup_s" in e2e and e2e <= {"setup_s", "wall_s", "op_p50_s", "op_tail_s",
                                        "peak_rss_mb"}
