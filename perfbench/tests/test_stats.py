"""The benchmark's arithmetic: percentiles, the tail rule and compare verdicts."""

import pytest

import stats


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert stats.percentile(values, 50) == (5.0, 5)
    assert stats.percentile(values, 90) == (9.0, 1)
    assert stats.percentile(values, 100) == (10.0, 0)
    assert stats.percentile([3.0, 1.0, 2.0], 1) == (1.0, 2)


@pytest.mark.parametrize(
    "n, percentile",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0),
     (40, 75.0), (39, 50.0), (20, 50.0), (5, 50.0)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, percentile):
    assert stats.tail_percentile(n) == percentile
    values = [float(v) for v in range(n)]
    p, value, beyond = stats.tail(values, n)
    assert p == percentile
    assert beyond == sum(1 for v in values if v > value)
    assert beyond >= 10 or n < 20


def test_tail_percentile_follows_the_plan_not_the_run_length():
    values = [float(v) for v in range(300)]  # a fast run: 300 samples for a plan of 60
    p, value, beyond = stats.tail(values, 60)
    assert p == 75.0 and value == 224.0 and beyond == 75
    p, _, beyond = stats.tail(values[:30], 60)  # a short run falls back
    assert p == 50.0 and beyond == 15


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0]) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert stats.spread(values) == pytest.approx((11.5 - 8.5) / 10.0)
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def paired(parent, change):
    return list(zip(parent, change))


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_verdict_improved_needs_nine_tenths_of_pairs_and_gap_beyond_iqr():
    change = [v * 0.8 for v in PARENT]
    assert stats.verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "improved"


def test_verdict_ties_count_for_neither_side():
    change = [v * 0.8 for v in PARENT]
    nine = change[:9] + [PARENT[9]]  # nine wins, one tie
    assert stats.verdict(PARENT, nine, paired(PARENT, nine), "lower", 0.1) == "improved"
    eight = change[:8] + PARENT[8:]  # eight wins, two ties
    assert stats.verdict(PARENT, eight, paired(PARENT, eight), "lower", 0.1) == "no worse"


def test_verdict_small_gain_inside_parent_iqr_is_no_worse():
    change = [v - 0.001 for v in PARENT]  # wins every pair, but by less than the IQR
    assert stats.verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "no worse"


def test_verdict_worse_beyond_bound():
    change = [v * 1.15 for v in PARENT]
    assert stats.verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "worse"
    change = [v * 1.05 for v in PARENT]
    assert stats.verdict(PARENT, change, paired(PARENT, change), "lower", 0.1) == "no worse"


def test_verdict_direction_higher_is_better():
    change = [v * 1.3 for v in PARENT]
    assert stats.verdict(PARENT, change, paired(PARENT, change), "higher", 0.1) == "improved"
    change = [v * 0.7 for v in PARENT]
    assert stats.verdict(PARENT, change, paired(PARENT, change), "higher", 0.1) == "worse"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    parent = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # spread ~0.5
    change = [v * 1.05 for v in parent]
    assert stats.verdict(parent, change, paired(parent, change), "lower", 0.1) == "unresolved"


def test_verdict_wide_spread_but_every_change_run_better_is_no_worse():
    parent = [1.0, 1.5, 1.1, 1.4, 1.2, 1.3, 1.0, 1.5, 1.2, 1.3]
    change = [0.9, 0.95, 0.92, 0.97, 0.91, 0.93, 0.96, 0.94, 0.99, 0.98]
    # wins every pair but the gap (about 0.3) is inside the parent's IQR
    assert stats.verdict(parent, change, [], "lower", 0.1) == "no worse"


def test_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError):
        stats.verdict([1.0], [1.0], [], "faster", 0.1)
