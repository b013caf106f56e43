"""Run one workload of the rootspiral benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/rootspiral; it builds
nothing.  The seed makes the op list.  Passes over that list repeat, one op
at a time, until the next pass would end after S seconds.  Every output is
then checked by the workload's oracle.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, with no
tracing.  --trace 1 alternates traced and untraced passes and reports the
per-layer metrics.  Either way every figure is printed with its unit, a
result file with the environment goes to perfbench/out/results/, and the
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every output was correct, 1 when one was wrong and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats

CLOCK = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("cli-paper", "arm-census", "deep-factor", "spiral-arms")
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s; the median is reported
MIN_PASSES = 3  # untraced passes every --trace 0 run makes, however long they take
# A fixed loop (the probe) runs just before and after every untraced op and
# set-up sample.  Times are reported scaled by REF_PROBE_S / probe time:
# seconds on a machine whose probe takes REF_PROBE_S, about what a 2-vCPU
# Intel Xeon VM's takes when no other tenant of its host is busy.  Raw times
# go to the result file beside them.
PROBE_STEPS = 20_000
REF_PROBE_S = 0.0015
SETUP_CODE = (
    "import time, rootspiral.cli\n"
    "rootspiral.cli.load_fixtures()\n"
    "print(repr(time.perf_counter()))\n"
)

# Per-layer metric -> key in the per-pass totals of spans.summarize() and the
# wrappers' counters.  Names and units are declared in BENCHMARK.json.
LAYER_KEYS = {
    "import.s": "import.s",
    "fixtures.load_s": "fixtures.load_fixtures.s",
    "spiral.total_angle.calls": "spiral.total_angle.calls",
    "spiral.total_angle.s": "spiral.total_angle.s",
    "spiral.polar_of.calls": "spiral.polar_of.calls",
    "spiral.polar_of.s": "spiral.polar_of.s",
    "spiral.estimate_c2.s": "spiral.estimate_c2.s",
    "spiral.angle_between.calls": "spiral.angle_between.calls",
    "spiral.angle_between.terms": "spiral.angle_between.terms",
    "spiral.angle_between.s": "spiral.angle_between.s",
    "factorlab.root_classes.calls": "factorlab.root_classes.calls",
    "factorlab.root_classes.q_sum": "factorlab.root_classes.q_sum",
    "factorlab.root_classes.s": "factorlab.root_classes.s",
    "factorlab.same_splitting.s": "factorlab.same_splitting.s",
    "factorlab.admissible_primes.s": "factorlab.admissible_primes.s",
    "factorlab.is_prime.calls": "factorlab.is_prime.calls",
    "factorlab.is_prime.s": "factorlab.is_prime.s",
    "factorlab.factorize.calls": "factorlab.factorize.calls",
    "factorlab.factorize.s": "factorlab.factorize.s",
    "factorlab.factorize.self_s": "factorlab.factorize.self_s",
    "factorlab.density_scan.terms": "factorlab.density_scan.terms",
    "factorlab.density_scan.self_s": "factorlab.density_scan.self_s",
    "factorlab.detect_arm_chain.self_s": "factorlab.detect_arm_chain.self_s",
    "numberspiral.ulam_coord.calls": "numberspiral.ulam_coord.calls",
    "numberspiral.ulam_coord.s": "numberspiral.ulam_coord.s",
    "numberspiral.ns_polar.calls": "numberspiral.ns_polar.calls",
    "numberspiral.ns_polar.s": "numberspiral.ns_polar.s",
    "svgplot.plot.self_s": "svgplot.layer_self_s",
    "quad.s": "quad.layer_s",
    "residues.s": "residues.layer_s",
    "cli.self_s": "cli.layer_self_s",
    "report.render_s": "report.layer_s",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="rootspiral benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- environment

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def loadavg() -> list[float]:
    return [float(v) for v in _read("/proc/loadavg").split()[:3]]


def probe(steps: int = PROBE_STEPS) -> float:
    """Seconds for a fixed pure-Python loop that uses no rootspiral code."""
    t0 = CLOCK()
    acc = 0
    for i in range(steps):
        acc = (acc * 31 + i) % 1_000_003
    return CLOCK() - t0


def speed_probe() -> float:
    """Median of five longer probes, recorded before and after the passes."""
    return statistics.median(probe(100_000) for _ in range(5))


def nproc() -> int:
    """CPUs this process may run on, from /proc/self/status."""
    allowed = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/self/status").splitlines()
         if line.startswith("Cpus_allowed_list")),
        "",
    )
    count = 0
    for part in filter(None, allowed.split(",")):
        lo, _, hi = part.partition("-")
        count += int(hi or lo) - int(lo) + 1
    return count


def environment(cpus: int) -> dict:
    """Commit, CPUs and versions; CPU facts come from /proc only."""
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    import numpy

    return {
        "commit": git_commit(),
        "nproc": cpus,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_commit() -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    head = _read(str(git / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    value = _read(str(git / ref)).strip()
    if value:
        return value
    for line in _read(str(git / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------- set-up

def time_setup(env: dict[str, str]) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until rootspiral.cli is
    imported and the fixtures are loaded (both clocks are CLOCK_MONOTONIC),
    and the mean probe time around it."""
    before = probe()
    start = CLOCK()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds = float(proc.stdout.strip()) - start
    return seconds, (before + probe()) / 2


# ---------------------------------------------------------------- passes

class Execution:
    __slots__ = ("op", "latency", "output", "error", "traced", "probe")

    def __init__(self, op, latency, output, error, traced, probe):
        self.op, self.latency, self.output, self.error, self.traced, self.probe = (
            op, latency, output, error, traced, probe)


def run_pass(workload, ops, tracer) -> tuple[float, list[Execution], dict[str, float]]:
    """One pass over the op list; with a tracer, spans are summed per pass."""
    totals: dict[str, float] = {}
    restore = spans.install(tracer) if tracer is not None and workload.in_process else None
    executions = []
    probing = 0.0
    start = CLOCK()
    try:
        for k, op in enumerate(ops):
            idx = tracer.open("bench.op") if tracer is not None else None
            before = probe() if tracer is None else 0.0
            probing += before
            t0 = CLOCK()
            try:
                output, error = workload.run(op, tracer), None
            except Exception as exc:  # a failing op is counted, the run goes on
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = CLOCK() - t0
            if tracer is not None:
                tracer.close(idx)
                recorded, counters = tracer.drain()
                for key, value in list(spans.summarize(recorded).items()) + list(counters.items()):
                    totals[key] = totals.get(key, 0.0) + value
            executions.append(Execution(k, latency, output, error, tracer is not None, before))
    finally:
        if restore is not None:
            spans.uninstall(restore)
    wall = CLOCK() - start - probing
    if tracer is None:  # each op's probe: the mean of the probes just before and after it
        after = [ex.probe for ex in executions[1:]] + [probe()]
        for ex, next_probe in zip(executions, after):
            ex.probe = (ex.probe + next_probe) / 2
    return wall, executions, totals


def run_passes(workload, ops, seconds: float, traced: bool):
    """Untraced passes, or untraced and traced passes in turn, until the next
    pass would end after `seconds` (but at least MIN_PASSES untraced passes,
    or one of each kind when tracing).  The first pass is untraced either
    way, so the traced passes start after lazy set-up such as the angle table."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_totals: list[dict[str, float]] = []
    executions: list[Execution] = []
    start = CLOCK()
    min_passes = 2 if traced else MIN_PASSES
    i = 0
    while True:
        tracer = spans.Tracer() if traced and i % 2 == 1 else None
        wall, execs, totals = run_pass(workload, ops, tracer)
        walls[tracer is not None].append(wall)
        executions += execs
        if tracer is not None:
            layer_totals.append(totals)
        i += 1
        if i >= min_passes and CLOCK() - start + wall > seconds:
            break
    return walls, executions, layer_totals


# ---------------------------------------------------------------- oracles

def check_outputs(workload, ops, executions, seed, timeout) -> tuple[int, list[str]]:
    """Failed executions and the problems behind them.

    Each op's first output goes through the workload's oracle; every later
    execution of the op must repeat that output exactly.
    """
    first: dict[int, Execution] = {}
    for ex in executions:
        if ex.error is None:
            first.setdefault(ex.op, ex)
    bad_ops: dict[int, list[str]] = {}
    for k, ex in first.items():
        rng = random.Random(seed * 1_000_003 + k)
        try:
            problems = workload.check(ops[k], ex.output, rng)
        except Exception as exc:  # an oracle that cannot read the output rejects it
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            bad_ops[k] = problems
    failed, notes = 0, []
    for ex in executions:
        label = ops[ex.op].label
        if ex.error is not None:
            problem = [ex.error]
        elif ex.latency > timeout:
            problem = [f"took {ex.latency:.1f} s"]
        elif ex.op in bad_ops:
            problem = bad_ops[ex.op]
        elif ex.output != first[ex.op].output:
            problem = ["output differs from the op's first run"]
        else:
            continue
        failed += 1
        if len(notes) < 20:
            notes.append(f"{label}: {'; '.join(problem[:3])}")
    return failed, notes


# ---------------------------------------------------------------- metrics

def best_latencies(executions, scaled: bool) -> dict[int, float]:
    """Each op's fastest untraced run, raw or scaled to the reference probe."""
    best: dict[int, float] = {}
    for ex in executions:
        if not ex.traced:
            latency = ex.latency * REF_PROBE_S / ex.probe if scaled else ex.latency
            best[ex.op] = min(best.get(ex.op, latency), latency)
    return best


def end_to_end(ops, executions, setup_samples, peak_rss_mb, failed, scaled):
    """wall_s and op_p50_s count each op at its fastest run (every op runs at
    least MIN_PASSES times), the run least slowed by other tenants of the
    machine; op_tail_s is taken over every untraced run.  With `scaled`,
    every time is scaled to the reference probe time."""
    best = best_latencies(executions, scaled)
    latencies = [ex.latency * (REF_PROBE_S / ex.probe if scaled else 1.0)
                 for ex in executions if not ex.traced]
    tail_p, tail_value, beyond = stats.tail(latencies, MIN_PASSES * len(ops))
    wall = sum(best.values())
    setup = [s * (REF_PROBE_S / p if scaled else 1.0) for s, p in setup_samples]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "op_p50_s": stats.percentile(list(best.values()), 50.0)[0],
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / len(executions),
    }
    terms = sum(op.terms for op in ops)
    if terms:
        metrics["terms_per_s"] = terms / wall
    tail_info = {"percentile": tail_p, "beyond": beyond, "samples": len(latencies)}
    return metrics, tail_info


def per_layer(walls, layer_totals, in_process_setup):
    """Per-pass means over the traced passes."""
    n = len(layer_totals)
    mean = {}
    for totals in layer_totals:
        for key, value in totals.items():
            mean[key] = mean.get(key, 0.0) + value / n
    mean.update(in_process_setup)
    metrics = {name: mean.get(key, 0.0) for name, key in LAYER_KEYS.items()}
    calls = mean.get("factorlab.is_prime.calls", 0.0)
    metrics["factorlab.is_prime.prime_ratio"] = (
        mean.get("factorlab.is_prime.primes", 0.0) / calls if calls else 0.0)
    metrics["svgplot.plot.bytes"] = sum(
        v for k, v in mean.items() if k.startswith("svgplot.") and k.endswith(".bytes"))
    traced_wall = statistics.fmean(walls[True])
    attributed = sum(v for k, v in mean.items()
                     if k.endswith(".layer_self_s") and not k.startswith("bench."))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - attributed
    metrics["trace.overhead_frac"] = min(walls[True]) / min(walls[False]) - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rootspiral" / "__init__.py").is_file():
        print(f"error: no src/rootspiral under {ROOT}; run from a rootspiral checkout",
              file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children, so the probe times the CPU
    # the ops run on.  This sets only this process's own affinity.
    cpus, cpu = nproc(), min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    load_before, probe_before = loadavg(), speed_probe()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = CLOCK()
    import rootspiral.cli
    import_s = CLOCK() - t0
    t0 = CLOCK()
    fx = rootspiral.cli.load_fixtures()
    fixtures_s = CLOCK() - t0
    import workloads

    setup_samples = [time_setup(workloads.child_env(ROOT)) for _ in range(SETUP_SAMPLES)]
    workload = workloads.WORKLOADS[args.workload](ROOT, OUT_DIR)
    ops = workload.make_ops(args.seed, fx)

    walls, executions, layer_totals = run_passes(workload, ops, args.seconds, bool(args.trace))
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0  # ru_maxrss is in KiB

    failed, notes = check_outputs(workload, ops, executions, args.seed,
                                  workloads.OP_TIMEOUT_S)
    metrics, tail_info = end_to_end(ops, executions, setup_samples, peak_rss_mb, failed, True)
    raw_metrics, _ = end_to_end(ops, executions, setup_samples, peak_rss_mb, failed, False)
    layers = {}
    if args.trace:
        in_process_setup = (
            {"import.s": import_s, "fixtures.load_fixtures.s": fixtures_s}
            if workload.in_process else {})
        layers = per_layer(walls, layer_totals, in_process_setup)

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    figures = layers if args.trace else metrics
    report = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(cpus), "pinned_cpu": cpu, "loadavg_before": load_before,
                        "loadavg_after": loadavg(), "speed_probe_s_before": probe_before,
                        "speed_probe_s_after": speed_probe()},
        "passes": {"untraced": walls[False], "traced": walls[True]},
        "op_best_s": [[ops[k].label, v]
                      for k, v in sorted(best_latencies(executions, False).items())],
        "ops_per_pass": len(ops),
        "attempted": len(executions),
        "failed": failed,
        "failures": notes,
        "tail": tail_info,
        "setup_samples": setup_samples,
        "end_to_end": metrics,
        "end_to_end_raw": raw_metrics,
        "per_layer": layers,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(failed_frac="ratio", terms_per_s="1/s")
    print(f"{args.workload} seed {args.seed}: {len(walls[False]) + len(walls[True])} passes "
          f"of {len(ops)} ops, {len(executions)} ops run, {failed} failed")
    for name, value in figures.items():
        raw = "" if args.trace or raw_metrics[name] == value else f"  (raw {raw_metrics[name]:.6g})"
        print(f"  {name:36s} {value:.6g} {units.get(name, '')}{raw}")
    print(f"  op_tail_s is p{tail_info['percentile']:g} of {tail_info['samples']} ops "
          f"({tail_info['beyond']} beyond)")
    for note in notes:
        print(f"  FAILED {note}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(executions), "failed": failed,
                      "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
