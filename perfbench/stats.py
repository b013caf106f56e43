"""Order statistics and the verdict rule shared by the runner and the compare command.

Percentiles use the nearest-rank definition, so a reported percentile is
always one of the measured samples.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the tail, highest first.  The tail is the highest of
# these with at least MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# A change counts as an improvement only if it wins this share of the
# seed-matched pairs (ties count for neither side).
WIN_SHARE = 0.9


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples ranked above it."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it
    (the median when n is below 2 * MIN_BEYOND)."""
    for p in TAIL_LADDER:
        if n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p
    return 50.0


def tail(values: list[float], planned: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the tail of a run.

    The percentile is the highest with at least MIN_BEYOND samples beyond it
    among `planned` samples, the fewest a run takes.  Fixing it by the plan
    rather than by the samples a run happened to take keeps one definition
    of the tail across runs of different speed; a longer run only puts more
    samples beyond it.
    """
    p = tail_percentile(min(planned, len(values)))
    value, beyond = percentile(values, p)
    return p, value, beyond


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """improved, no worse, unresolved or worse, for one metric on one workload.

    parent and change hold one value per run; pairs holds (parent, change)
    values of runs made with the same seed.  Improved needs >= 9/10 of the
    pairs won and a median gain wider than the parent's own interquartile
    range.  When the parent's spread exceeds the bound the result is
    unresolved, unless every change run beats every parent run.  Otherwise
    a median worse by more than bound * parent median is worse.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    gain = (mp - mc) * sign  # > 0: the change is better
    iqr = 0.0
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        iqr = q3 - q1
    wins = sum(1 for p, c in pairs if (p - c) * sign > 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved"
    if spread(parent) > bound:
        beats_all = all((p - c) * sign > 0 for p in parent for c in change)
        return "no worse" if beats_all else "unresolved"
    if -gain > bound * abs(mp):
        return "worse"
    return "no worse"
