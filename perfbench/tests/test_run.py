"""End-to-end figures from op runs: fastest runs, probe scaling and the tail."""

import pytest

import run
from workloads import Op


def execution(op, latency, probe, traced=False):
    return run.Execution(op, latency, None, None, traced, probe)


def test_wall_and_p50_count_each_op_at_its_fastest_scaled_run():
    ref = run.REF_PROBE_S
    ops = [Op("a", (), 10), Op("b", (), 10)]
    runs = [
        execution(0, 1.0, ref), execution(1, 3.0, ref),
        execution(0, 2.0, 2 * ref),  # as fast as the first run once scaled
        execution(1, 2.0, ref / 2),  # scaled to 4.0: not the fastest
        execution(0, 0.1, ref, traced=True),  # traced runs never count
    ]
    setup = [(0.2, ref), (0.4, 2 * ref), (0.3, ref)]
    scaled, tail = run.end_to_end(ops, runs, setup, 40.0, 0, True)
    assert scaled["wall_s"] == pytest.approx(1.0 + 3.0)
    assert scaled["op_p50_s"] == pytest.approx(1.0)
    assert scaled["setup_s"] == pytest.approx(0.2)
    assert scaled["terms_per_s"] == pytest.approx(20 / 4.0)
    assert tail["samples"] == 4
    raw, _ = run.end_to_end(ops, runs, setup, 40.0, 0, False)
    assert raw["wall_s"] == pytest.approx(1.0 + 2.0)
    assert raw["setup_s"] == pytest.approx(0.3)
