"""Compare two sets of result files of the rootspiral benchmark.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py --summary RESULTS

PARENT, CHANGE and RESULTS are result files or directories of them, as
perfbench/run.py writes them (only --trace 0 files are read).  The first
form prints one row per end-to-end metric and workload, with each side's
median, the parent's spread, the pairs won by the change (runs are paired
by seed) and a verdict: improved, no worse, unresolved or worse (see
stats.verdict).  Bounds and directions come from BENCHMARK.json; the two
figures it does not gate follow wall_s (terms_per_s) or allow no increase
at all (failed_frac).  The second form prints the medians and quartiles of
one set, end-to-end and per-layer, as JSON: the form of a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def metric_rules() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) for every end-to-end figure in a result file."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    rules["terms_per_s"] = ("higher", rules["wall_s"][1])
    rules["failed_frac"] = ("lower", 0.0)
    return rules


def read_results(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def load(paths: list[str], trace: int = 0) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> figures: end-to-end ones from --trace 0 result
    files, or per-layer ones from --trace 1 files."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for result in read_results(paths):
        if result.get("trace") == trace:
            figures = result["per_layer"] if trace else result["end_to_end"]
            runs.setdefault(result["workload"], {})[result["seed"]] = figures
    return runs


def machine(paths: list[str]) -> dict[str, list]:
    """The distinct commits and machine facts behind a set of results."""
    keys = ("commit", "nproc", "cpu_model", "python", "numpy")
    return {k: sorted({r["environment"][k] for r in read_results(paths)}) for k in keys}


def summary(runs) -> dict:
    """Median, quartiles and spread of every figure, per workload."""
    out = {}
    for workload, by_seed in sorted(runs.items()):
        names = sorted(set().union(*(m.keys() for m in by_seed.values())))
        out[workload] = {"seeds": sorted(by_seed)}
        for name in names:
            values = [m[name] for m in by_seed.values() if name in m]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            out[workload][name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                   "spread": stats.spread(values)}
    return out


def compare_rows(parent, change, rules) -> list[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for name, (better, bound) in rules.items():
            p_vals = [m[name] for m in p_runs.values() if name in m]
            c_vals = [m[name] for m in c_runs.values() if name in m]
            if not p_vals or not c_vals:
                continue
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s] and name in c_runs[s]]
            sign = 1.0 if better == "lower" else -1.0
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": statistics.median(p_vals),
                "parent_iqr": stats.spread(p_vals),
                "change": statistics.median(c_vals),
                "wins": sum(1 for p, c in pairs if (p - c) * sign > 0),
                "pairs": len(pairs),
                "bound": bound,
                "verdict": stats.verdict(p_vals, c_vals, pairs, better, bound),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", action="store_true", help="summarize one set of results")
    parser.add_argument("sets", nargs="+", help="result files or directories")
    args = parser.parse_args(argv)
    if args.summary:
        point = {"environment": machine(args.sets), "end_to_end": summary(load(args.sets)),
                 "per_layer": summary(load(args.sets, trace=1))}
        print(json.dumps(point, indent=1, sort_keys=True))
        return 0
    if len(args.sets) != 2:
        parser.error("give two sets: PARENT CHANGE")
    rows = compare_rows(load([args.sets[0]]), load([args.sets[1]]), metric_rules())
    if not rows:
        print("no workload has --trace 0 results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':12s} {'metric':12s} {'parent':>11s} {'iqr':>6s} {'change':>11s} "
          f"{'delta':>7s} {'won':>6s} {'bound':>5s}  verdict")
    for r in rows:
        delta = (r["change"] - r["parent"]) / r["parent"] if r["parent"] else 0.0
        print(f"{r['workload']:12s} {r['metric']:12s} {r['parent']:11.5g} {r['parent_iqr']:6.1%} "
              f"{r['change']:11.5g} {delta:+7.1%} {r['wins']:>2d}/{r['pairs']:<3d} "
              f"{r['bound']:5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
