"""Spans around rootspiral's public functions, recorded from outside the package.

install() swaps each public function of the traced modules, in every
rootspiral namespace that holds a reference to it, for a wrapper that
records a span [name, start, end, parent] and the function's work
counters; uninstall() puts the originals back.  Nothing under src/ changes.

Span names are "<module>.<function>"; the part before the first dot is the
layer.  Spans stay in memory until drained, and summarize() folds a list of
spans into additive per-name and per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

CLOCK = time.perf_counter  # CLOCK_MONOTONIC on Linux: one timeline for all processes

TRACED_MODULES = ("spiral", "factorlab", "quad", "residues", "numberspiral", "svgplot", "fixtures")

# Work counters: span name -> function of (args, result) giving {counter: amount}.
COUNTERS = {
    "spiral.angle_between": lambda a, r: {"terms": a[1] - a[0]},
    "factorlab.root_classes": lambda a, r: {"q_sum": a[1]},
    "factorlab.is_prime": lambda a, r: {"primes": int(r)},
    "factorlab.density_scan": lambda a, r: {"terms": max(0, a[2] - a[1])},
    "svgplot.plot_sqrt_spiral": lambda a, r: {"bytes": len(r)},
    "svgplot.plot_number_spiral": lambda a, r: {"bytes": len(r)},
    "svgplot.plot_ulam": lambda a, r: {"bytes": len(r)},
    "svgplot.plot_arms": lambda a, r: {"bytes": len(r)},
    "svgplot.plot_fig7": lambda a, r: {"bytes": len(r)},
}


class Tracer:
    """Spans and counters of one process, kept in memory until drained."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, CLOCK() if start is None else start, 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = CLOCK() if end is None else end
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def adopt(self, spans: list[list], counters: dict[str, float]) -> None:
        """Append spans recorded elsewhere (another process) under the open span."""
        base = len(self.spans)
        root = self.stack[-1] if self.stack else -1
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, root if parent < 0 else parent + base])
        for key, value in counters.items():
            self.counters[key] += value

    def drain(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the recorded spans and counters and start empty.

        The lists are cleared in place because installed wrappers hold them.
        """
        if self.stack:
            raise RuntimeError("drain with open spans")
        spans, counters = self.spans[:], dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def _wrap(tracer: Tracer, name: str, fn):
    spans, stack, counters, clock = tracer.spans, tracer.stack, tracer.counters, CLOCK
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(spans)
        spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[idx][2] = clock()
            stack.pop()
        if count is not None:
            for key, value in count(args, result).items():
                counters[f"{name}.{key}"] += value
        return result

    return traced


def _traced_functions() -> dict[str, object]:
    """Span name -> original callable, for every function the trace wraps."""
    targets = {}
    for mod_name in TRACED_MODULES:
        mod = importlib.import_module(f"rootspiral.{mod_name}")
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not inspect.isclass(value)
                and getattr(value, "__module__", None) == mod.__name__
            ):
                targets[f"{mod_name}.{attr}"] = value
    cli = sys.modules.get("rootspiral.cli")
    if cli is not None:
        targets["cli.main"] = cli.main
    return targets


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the traced functions; returns what uninstall() needs to undo it."""
    wrappers = {}
    for name, fn in _traced_functions().items():
        wrappers[id(fn)] = _wrap(tracer, name, fn)
    restore = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "rootspiral" and not mod_name.startswith("rootspiral."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                restore.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    report_cls = importlib.import_module("rootspiral.report").Report
    for method in ("to_json", "to_text"):
        original = getattr(report_cls, method)
        restore.append((report_cls, method, original))
        setattr(report_cls, method, _wrap(tracer, f"report.{method}", original))
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list]) -> dict[str, float]:
    """Additive totals over a list of spans.

    For a span name N: N.calls, N.s (durations of N spans not inside another
    N span) and N.self_s.  For a layer L: L.layer_s (durations of L spans not
    inside another L span) and L.layer_self_s.
    """
    totals: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for idx, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        outer_name = outer_layer = True
        p = parent
        while p >= 0:
            p_name = spans[p][0]
            outer_name = outer_name and p_name != name
            outer_layer = outer_layer and p_name.split(".", 1)[0] != layer
            p = spans[p][3]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += selfs[idx]
        totals[f"{layer}.layer_self_s"] += selfs[idx]
        if outer_name:
            totals[f"{name}.s"] += end - start
        if outer_layer:
            totals[f"{layer}.layer_s"] += end - start
    return dict(totals)
