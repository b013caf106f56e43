"""The benchmark's workloads: inputs made from a seed, one operation, and its oracle.

Every workload is a closed loop with one client: the runner starts an op
only after the previous one returned, because a user of the CLI or the
library waits for each result.  make_ops() is the only place the seed is
used; the program receives only the generated inputs.  Oracles run outside
the timed region, and sympy and mpmath are imported only by them.

Why each workload exists, and which layer it should stress, is written in
perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from rootspiral import factorlab, spiral
from rootspiral.fixtures import FixtureSet

OP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple
    terms: int = 0  # arm terms the op classifies or factors (terms_per_s)


class Workload:
    name = ""
    in_process = True

    def __init__(self, root: Path, out_dir: Path) -> None:
        self.root = root
        self.out_dir = out_dir

    def make_ops(self, seed: int, fx: FixtureSet) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, output, rng: random.Random) -> list[str]:
        """Problems found in an op's output; empty when it is correct."""
        raise NotImplementedError


def child_env(root: Path) -> dict[str, str]:
    """The environment for a child interpreter that imports <root>/src/rootspiral."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _poly(fx: FixtureSet, name: str):
    return fx.find_arm(name)[1].poly


def _isprime(n: int) -> bool:
    import sympy

    return bool(sympy.isprime(n))


def _brute_roots(a: int, b: int, c: int, q: int) -> list[int]:
    return [t for t in range(q) if (a * t * t + b * t + c) % q == 0]


def _gap_rule(roots: list[int], q: int) -> tuple[int, ...]:
    if len(roots) == q:
        return (1,)
    if not roots:
        return ()
    if len(roots) == 1:
        return (q,)
    g = roots[1] - roots[0]
    return tuple(sorted((g, q - g)))


# ---------------------------------------------------------------- arm-census

CENSUS_FIXED = ("P18-B/B3", "N22-Q/Q3", "P20-G/G1")
CENSUS_SEEDED = 16  # further arms per pass, drawn by the seed
CENSUS_TERMS = 5000  # first terms of each arm tested with is_prime
# Root classes are solved for every admissible prime up to this bound.  It
# sits below the 1e4 of the shared-splitting op so that one arm op stays
# near 0.2 s and every run, at 2 to 5 passes, holds 40 to 100 ops: a p75 tail.
CENSUS_BOUND = 3000
SPLIT_ARMS = ("N22-Q/Q3", "N22-S/S1")  # the paper's shared-discriminant pair
SPLIT_BOUND = 10**4
ORACLE_TERMS = 150  # sampled terms per arm checked with sympy.isprime
ORACLE_PRIMES = 25  # sampled primes per arm checked by brute-force root search


class ArmCensus(Workload):
    name = "arm-census"

    def make_ops(self, seed, fx):
        rng = random.Random(seed)
        pool = sorted(
            f"{s.name}/{a.name}"
            for s in fx.systems + fx.extras
            if s.d2 in (18, 20, 22)
            for a in s.arms
        )
        pool = [name for name in pool if name not in CENSUS_FIXED]
        arms = list(CENSUS_FIXED) + rng.sample(pool, CENSUS_SEEDED)
        ops = [Op(f"arm {name}", ("arm", _poly(fx, name)), CENSUS_TERMS) for name in arms]
        ops.append(Op(
            f"same_splitting {SPLIT_ARMS[0]} {SPLIT_ARMS[1]}",
            ("split", _poly(fx, SPLIT_ARMS[0]), _poly(fx, SPLIT_ARMS[1])),
        ))
        rng.shuffle(ops)
        return ops

    def run(self, op, tracer=None):
        if op.args[0] == "split":
            comp = factorlab.same_splitting(op.args[1], op.args[2], SPLIT_BOUND)
            return comp.equal, comp.witness
        poly = op.args[1]
        is_prime = factorlab.is_prime
        flags = bytes(
            1 if v >= 2 and is_prime(v) else 0
            for v in (poly(x) for x in range(1, CENSUS_TERMS + 1))
        )
        adm = factorlab.admissible_primes(poly, CENSUS_BOUND)
        classes = tuple(
            (rc.p, tuple(sorted(rc.roots)), rc.gaps)
            for rc in (factorlab.root_classes(poly, q) for q in adm.primes)
        )
        return flags, adm.primes, classes

    def check(self, op, output, rng):
        import sympy

        if op.args[0] == "split":
            problems = []
            if output != (True, None):
                problems.append(f"same_splitting gave {output}, expected identical splitting")
            pa, pb = op.args[1], op.args[2]
            for q in rng.sample(list(sympy.primerange(2, SPLIT_BOUND + 1)), ORACLE_PRIMES):
                ra, rb = _brute_roots(pa.a, pa.b, pa.c, q), _brute_roots(pb.a, pb.b, pb.c, q)
                if _gap_rule(ra, q) != _gap_rule(rb, q):
                    problems.append(f"brute force splits q={q} differently")
            return problems
        poly = op.args[1]
        flags, primes, classes = output
        problems = []
        if len(flags) != CENSUS_TERMS:
            return [f"{len(flags)} flags for {CENSUS_TERMS} terms"]
        for x in rng.sample(range(1, CENSUS_TERMS + 1), ORACLE_TERMS):
            if bool(flags[x - 1]) != _isprime(poly(x)):
                problems.append(f"is_prime wrong at x={x} (value {poly(x)})")
        if [c[0] for c in classes] != list(primes):
            problems.append("root classes do not follow the admissible primes")
        recorded = dict((c[0], c) for c in classes)
        for q in rng.sample(list(sympy.primerange(2, CENSUS_BOUND + 1)), ORACLE_PRIMES):
            roots = _brute_roots(poly.a, poly.b, poly.c, q)
            if bool(roots) != (q in recorded):
                problems.append(f"admissibility of q={q} wrong")
            elif roots and recorded[q][1:] != (tuple(roots), _gap_rule(roots, q)):
                problems.append(f"root classes mod {q}: {recorded[q][1:]}, brute force {roots}")
        return problems


# ---------------------------------------------------------------- deep-factor

DEEP_ARMS = ("P18-B/B3", "N22-Q/Q3", "P20-G/G1")
DEEP_WINDOWS = 80  # windows per pass
DEEP_LEN = 45  # terms per window
DEEP_BELOW = 10**6  # window starts lie within this many indices of the limit


def _last_index_below_limit(poly) -> int:
    """Largest x with poly(x) <= 2^63 (poly increasing for x >= 1)."""
    lo, hi = 1, 1
    while poly(hi) <= factorlab.VALUE_LIMIT:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poly(mid) <= factorlab.VALUE_LIMIT:
            lo = mid
        else:
            hi = mid
    return lo


class DeepFactor(Workload):
    name = "deep-factor"

    def make_ops(self, seed, fx):
        rng = random.Random(seed)
        ops = []
        for i in range(DEEP_WINDOWS):
            name = DEEP_ARMS[i % len(DEEP_ARMS)]
            poly = _poly(fx, name)
            x_end = _last_index_below_limit(poly) + 1 - rng.randrange(DEEP_BELOW)
            x0 = x_end - DEEP_LEN
            ops.append(Op(f"density_scan {name} [{x0}, {x_end})", (poly, x0, x_end), DEEP_LEN))
        rng.shuffle(ops)
        return ops

    def run(self, op, tracer=None):
        poly, x0, x1 = op.args
        report = factorlab.density_scan(poly, x0, x1)
        return tuple(
            (r.x, r.value, r.prime, None if r.factorization is None else r.factorization.factors)
            for r in report.records
        )

    def check(self, op, output, rng):
        poly, x0, x1 = op.args
        problems = []
        if [rec[0] for rec in output] != list(range(x0, x1)):
            return ["window indices wrong"]
        for x, value, prime, factors in output:
            if value != poly(x):
                problems.append(f"value at x={x} wrong")
            elif prime:
                if factors is not None or not _isprime(value):
                    problems.append(f"{value} reported prime")
            else:
                product = 1
                for p, e in factors or ():
                    product *= p**e
                    if not _isprime(p):
                        problems.append(f"factor {p} of {value} is not prime")
                if product != value:
                    problems.append(f"factors of {value} multiply to {product}")
        return problems


# ---------------------------------------------------------------- spiral-arms

SPIRAL_CHAINS = 14  # chains per pass, one per log-spaced grid step over [1e2, 1e8]
SPIRAL_LOG_RANGE = (2.0, 8.0)
# Each chain seed lies in a band this share of a grid step wide (log10) around
# its grid point, so seeds change the integers but not the cost profile: a
# free draw near 1e8 would swing a pass by tens of percent, since polar_of
# there costs O(n).
SPIRAL_JITTER = 0.1
# Chain terms.  Detection scores every step of every candidate, so at this
# length it outweighs the two polar_of calls.  With 14 grid steps no chain's
# first or last value comes within 20% of the 2.2e6 angle-table limit, so
# the table's size (and peak RSS) does not depend on the seed.
SPIRAL_LENGTH = 200
ORACLE_SPANS = 3  # sampled chain steps summed with mpmath


class SpiralArms(Workload):
    name = "spiral-arms"

    def make_ops(self, seed, fx):
        rng = random.Random(seed)
        lo, hi = SPIRAL_LOG_RANGE
        step = (hi - lo) / SPIRAL_CHAINS
        ops = []
        for i in range(SPIRAL_CHAINS):
            center = lo + (i + 0.5) * step
            n = round(10 ** (center + SPIRAL_JITTER * step * (rng.random() - 0.5)))
            d2 = rng.choice((18, 20, 22))
            ops.append(Op(f"chain seed={n} d2={d2}", (n, d2)))
        # Ascending order, not shuffled: the angle table then grows the same
        # way in every run, and peak RSS does not depend on the seed.
        return ops

    def run(self, op, tracer=None):
        n, d2 = op.args
        chain = factorlab.detect_arm_chain(n, d2, SPIRAL_LENGTH)
        first, last = spiral.polar_of(chain.values[0]), spiral.polar_of(chain.values[-1])
        return (chain.values, chain.delta1, chain.drifts,
                first.angle_total, first.wind, last.angle_total, last.wind)

    def check(self, op, output, rng):
        import mpmath

        n, d2 = op.args
        values, delta1, drifts, a_first, w_first, a_last, w_last = output
        problems = []
        if len(values) != SPIRAL_LENGTH or values[0] != n or values[1] - values[0] != delta1:
            problems.append("chain does not start at the seed with its first step")
        if any(values[i + 2] - 2 * values[i + 1] + values[i] != d2 for i in range(len(values) - 2)):
            problems.append(f"second difference is not {d2}")
        if w_first != int(a_first // spiral.TWO_PI) or w_last != int(a_last // spiral.TWO_PI):
            problems.append("wind does not match the angle")
        # the table (or a streamed sum from 1) and the chained step sums must agree
        chained = math.fsum(d + spiral.TWO_PI for d in drifts)
        if abs((a_last - a_first) - chained) > 1e-6:
            problems.append(f"polar angles differ by {a_last - a_first}, steps sum to {chained}")
        # sum only steps of at most 5000 terms with mpmath, to keep the oracle short
        short = [i for i in range(len(drifts)) if values[i + 1] - values[i] <= 5000]
        with mpmath.workdps(30):
            for i in rng.sample(short, min(ORACLE_SPANS, len(short))):
                exact = mpmath.fsum(
                    mpmath.atan(1 / mpmath.sqrt(k)) for k in range(values[i], values[i + 1])
                )
                if abs(float(exact) - (drifts[i] + spiral.TWO_PI)) > 1e-9:
                    problems.append(f"angle_between({values[i]}, {values[i + 1]}) off mpmath")
        return problems


# ---------------------------------------------------------------- cli-paper

README_COMMANDS = (
    ("constants",),
    ("verify-tables", "--which", "all"),
    ("factors", "B3", "--bound", "61"),
    ("factors", "Q3", "--compare", "S1"),
    ("factors", "K5", "--window", "1..6"),
    ("density", "B3", "--at", "2.5e9"),
    ("residues", "Q3"),
    ("detect", "--seed-n", "17", "--d2", "18", "--length", "6"),
    ("plot", "sqrt-spiral", "--n", "300", "--out", "spiral.svg"),
    ("plot", "arms", "--system", "P18-A", "--n", "7000", "--out", "arms.svg"),
)
# The two plot kinds the README omits, so that numberspiral is exercised.
EXTRA_COMMANDS = (
    ("plot", "ulam", "--n", "10000", "--out", "ulam.svg"),
    ("plot", "number-spiral", "--n", "3000", "--out", "number-spiral.svg"),
)
WINDOWS_PER_ARM = 2  # seeded spot-check windows per fixture arm
README_DETECT_VALUES = [17, 53, 107, 179, 269, 377]


class CliPaper(Workload):
    name = "cli-paper"
    in_process = False

    def make_ops(self, seed, fx):
        rng = random.Random(seed)
        svg_dir = self.out_dir.relative_to(self.root) / "svg"
        commands = []
        for argv in README_COMMANDS + EXTRA_COMMANDS:
            if argv[0] == "plot":
                argv = argv[:-1] + (str(svg_dir / argv[-1]),)
            commands.append(argv)
        by_arm: dict[str, list] = {}
        for w in fx.windows:
            by_arm.setdefault(f"{w.system}/{w.arm}", []).append(w.label)
        for arm, labels in sorted(by_arm.items()):
            for label in rng.sample(labels, WINDOWS_PER_ARM):
                commands.append(("density", arm, "--at", label))
        rng.shuffle(commands)
        (self.out_dir / "svg").mkdir(parents=True, exist_ok=True)
        return [Op(" ".join(argv), argv) for argv in commands]

    def run(self, op, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "rootspiral.cli", "--json", *op.args]
        else:
            spans_path = self.out_dir / "spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("clidriver.py")),
                   str(spans_path), "--json", *op.args]
        proc = subprocess.run(cmd, cwd=self.root, env=child_env(self.root), capture_output=True,
                              timeout=OP_TIMEOUT_S)
        if tracer is not None and proc.returncode == 0:
            with open(spans_path, encoding="utf-8") as fh:
                recorded = json.load(fh)
            tracer.adopt(recorded["spans"], recorded["counters"])
        return proc.returncode, proc.stdout

    def check(self, op, output, rng):
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["stdout is not a JSON report"]
        problems = []
        if payload.get("command") != op.args[0]:
            problems.append(f"report is for {payload.get('command')!r}")
        failed = [c["name"] for c in payload.get("checks", []) if c["status"] == "fail"]
        if failed or payload.get("summary", {}).get("failed"):
            problems.append(f"failed checks: {failed}")
        data = payload.get("data", {})
        if op.args[0] == "detect" and data.get("values") != README_DETECT_VALUES:
            problems.append(f"detect found {data.get('values')}")
        if op.args[0] == "plot":
            svg = (self.root / data.get("path", "")).read_bytes()
            if hashlib.sha256(svg).hexdigest() != data.get("sha256"):
                problems.append("SVG on disk does not match the reported sha256")
        return problems


WORKLOADS = {w.name: w for w in (CliPaper, ArmCensus, DeepFactor, SpiralArms)}
