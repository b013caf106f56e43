"""Each workload's oracle passes a real output and rejects a wrong one."""

import random
from pathlib import Path

import pytest

import workloads
from rootspiral import load_fixtures

ROOT = Path(workloads.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fx():
    return load_fixtures()


def make(cls, tmp_path=None):
    return cls(ROOT, tmp_path or ROOT / "perfbench" / "out")


def test_deep_factor_oracle(fx):
    w = make(workloads.DeepFactor)
    poly = fx.find_arm("P18-B/B3")[1].poly
    x1 = workloads._last_index_below_limit(poly) + 1
    op = workloads.Op("window", (poly, x1 - 3, x1), 3)
    output = w.run(op)
    assert w.check(op, output, random.Random(0)) == []
    x, value, prime, factors = next(rec for rec in output if not rec[2])
    bad = tuple(
        (x, value, prime, ((factors[0][0], factors[0][1] + 1),) + factors[1:]) if rec[0] == x
        else rec
        for rec in output
    )
    assert any("multiply" in p for p in w.check(op, bad, random.Random(0)))


def test_arm_census_oracle(fx):
    w = make(workloads.ArmCensus)
    op = workloads.Op("arm", ("arm", fx.find_arm("P18-B/B3")[1].poly), workloads.CENSUS_TERMS)
    flags, primes, classes = w.run(op)
    assert w.check(op, (flags, primes, classes), random.Random(0)) == []
    flipped = bytes(1 - f for f in flags)
    assert w.check(op, (flipped, primes, classes), random.Random(0))
    shifted = tuple((q, tuple((r + 1) % q for r in roots), gaps) for q, roots, gaps in classes)
    assert w.check(op, (flags, primes, shifted), random.Random(0))


def test_same_splitting_oracle_expects_identical_splitting(fx):
    w = make(workloads.ArmCensus)
    op = workloads.Op("split", ("split", fx.find_arm("N22-Q/Q3")[1].poly,
                                fx.find_arm("N22-S/S1")[1].poly))
    assert w.check(op, (True, None), random.Random(0)) == []
    assert w.check(op, (False, 7), random.Random(0))


def test_spiral_arms_oracle():
    w = make(workloads.SpiralArms)
    op = workloads.Op("chain", (300, 20))
    output = w.run(op)
    assert w.check(op, output, random.Random(0)) == []
    values, delta1, drifts, *polar = output
    wrong_d2 = workloads.Op("chain", (300, 18))
    assert any("second difference" in p for p in w.check(wrong_d2, output, random.Random(0)))
    skewed = (values, delta1, tuple(d + 1e-6 for d in drifts), *polar)
    assert w.check(op, skewed, random.Random(0))


def test_cli_oracle(tmp_path):
    w = make(workloads.CliPaper, tmp_path)
    op = workloads.Op("detect", ("detect", "--seed-n", "17", "--d2", "18", "--length", "6"))
    code, stdout = w.run(op)
    assert w.check(op, (code, stdout), random.Random(0)) == []
    assert w.check(op, (1, stdout), random.Random(0)) == ["exit code 1"]
    failing = stdout.replace(b'"status": "pass"', b'"status": "fail"')
    assert any("failed checks" in p for p in w.check(op, (0, failing), random.Random(0)))
    moved = stdout.replace(b"377", b"378")
    assert any("detect found" in p for p in w.check(op, (0, moved), random.Random(0)))
