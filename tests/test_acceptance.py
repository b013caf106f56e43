"""Acceptance gate: one test per numbered criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 10's Q3 clause is recorded as a known defect of the
printed prime list (see the xfail below) and kept red on purpose.
"""

import itertools
import json
import math
import random
import time

import pytest
from oracles import brute_roots

from rootspiral import factorlab, residues, spiral
from rootspiral.cli import main
from rootspiral.fixtures import load_fixtures
from rootspiral.numberspiral import (
    composite_factor,
    composite_params,
    pronic_triangle_angle,
    sqrt_spiral_counterparts,
)
from rootspiral.quad import QuadPoly, decimate, newton_fit, shift

PI = math.pi
B3 = QuadPoly(9, 9, -1)
A3 = QuadPoly(9, 3, -1)
Q3 = QuadPoly(11, -31, 31)
S1 = QuadPoly(11, -13, 13)
K5 = QuadPoly(11, 3, -1)
EULER = QuadPoly(1, 1, 41)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_01_spiral_constant():
    t0 = time.monotonic()
    value = spiral.estimate_c2(10**6, accelerate=True)
    elapsed = time.monotonic() - t0
    err = abs(value - (-2.157782996659))
    verdict(
        "1 spiral constant",
        err <= 1e-9 and elapsed < 10.0,
        f"estimate_c2(1e6)={value:.12f} err={err:.1e} in {elapsed:.2f}s",
    )


def test_02_winding_gap():
    t0 = time.monotonic()
    gap = spiral.winding_gap(10**6)
    elapsed = time.monotonic() - t0
    verdict(
        "2 winding gap",
        abs(gap - PI) <= 1e-3 and elapsed < 5.0,
        f"winding_gap(1e6)={gap:.9f} |diff|={abs(gap - PI):.1e} in {elapsed:.2f}s",
    )


def test_03_square_arm_angle():
    angle = spiral.square_arm_angle(1000)
    verdict(
        "3 square-arm angle",
        abs(angle - 114.5916) <= 0.01,
        f"square_arm_angle(1000)={angle:.6f} deg",
    )


def test_04_appendix_coordinate():
    got = 360.0 - math.degrees(spiral.total_angle(17))
    verdict(
        "4 appendix sqrt(17)",
        abs(got - 8.84957988) <= 1e-5,
        f"360-total_angle(17)deg={got:.8f}",
    )


def test_05_table_fidelity():
    fx = load_fixtures()
    counts = {}
    exact = True
    for which in ("6A", "6B", "6C", "7"):
        n = 0
        for system in fx.table_systems(which):
            for arm in system.arms:
                n += 1
                if newton_fit(1, arm.terms[:3]) != arm.fits[0]:
                    exact = False
                for m in range(1, 4):
                    if shift(arm.fits[m - 1], 1) != arm.fits[m]:
                        exact = False
        counts[which] = n
    ok = exact and counts == {"6A": 36, "6B": 36, "6C": 33, "7": 4}
    verdict("5 table fidelity", ok, f"counts={counts} exact={exact}")


def test_06_coefficient_rules():
    fx = load_fixtures()
    # the three printed rules themselves, independent of the re-indexing identity
    # verify-tables checks: a = d2/2 in every fit, b steps by d2 from fit to fit,
    # and fit m + 1 has c equal to term m, the term preceding its three samples
    bad = sorted({
        f"{system.name}/{arm.name}"
        for system in fx.systems + fx.extras
        for arm in system.arms
        for m, fit in enumerate(arm.fits)
        if 2 * fit.a != system.d2
        or m > 0 and fit.b - arm.fits[m - 1].b != system.d2
        or m > 0 and fit.c != arm.terms[m - 1]
    })
    verdict("6 coefficient rules", not bad, f"failing arms: {bad or 'none'}")


def test_07_ending_cycles():
    fx = load_fixtures()
    offenders = [
        f"{s.name}/{a.name}"
        for s in fx.systems + fx.extras
        for a in s.arms
        if len(residues.residue_cycle(a.poly, 10)) not in residues.ENDING_PERIODS
    ]
    d8 = residues.residue_cycle(QuadPoly(10, 50, 67), 10)
    q3 = residues.residue_cycle(Q3, 10)
    ok = (
        not offenders
        and d8 == (7,)
        and set(q3) == {1, 3, 7}
        and any(q3[i:] + q3[:i] == (3, 1, 1, 3, 7) for i in range(len(q3)))
    )
    verdict(
        "7 ending cycles",
        ok,
        f"offenders={offenders or 'none'} D8={d8} Q3={q3}",
    )


def test_08_digit_sum_patterns():
    # the paper's printed steps and cycles, compared up to rotation
    cases = {
        "A2": (QuadPoly(9, 3, -5), (3, 3, 3)),
        "A3": (A3, (3, 3, 3)),
        "B1": (QuadPoly(9, 9, -7), (9,)),
        "B3": (B3, (9,)),
        "N20-D1": (QuadPoly(10, -10, 7), (3, 3, 2, 1)),
        "K3 (d2=22)": (QuadPoly(11, -19, 13), (1, 2, 3, 3)),
    }
    woes = []
    for name, (poly, want) in cases.items():
        gaps = residues.digit_sum_gaps(poly)
        if not any(gaps[i:] + gaps[:i] == want for i in range(len(gaps))):
            woes.append(f"{name}: {gaps}")
    verdict("8 digit-sum patterns", not woes, "; ".join(woes) or "all patterns match")


def test_09_factor_periods():
    rc13 = factorlab.root_classes(B3, 13)
    rc23 = factorlab.root_classes(B3, 23)
    ok = rc13.gaps == (13,) and len(rc13.roots) == 1 and rc23.gaps == (2, 21)
    for q, rc in ((13, rc13), (23, rc23)):
        hits = brute_roots(B3, q, 10 * q)
        ok = ok and {b - a for a, b in itertools.pairwise(hits)} == set(rc.gaps)
    verdict("9 factor periods", ok, f"B3 mod13 gaps={rc13.gaps} mod23 gaps={rc23.gaps}")


def _brute_admissible(poly: QuadPoly, bound: int) -> tuple[int, ...]:
    return tuple(
        q
        for q in factorlab.primes_up_to(bound)
        if brute_roots(poly, q)
    )


def test_10_admissible_primes_b3_k5_and_oracle():
    got_b3 = factorlab.admissible_primes(B3, 61).primes
    got_k5 = factorlab.admissible_primes(K5, 37).primes
    got_q3 = factorlab.admissible_primes(Q3, 89).primes
    ok = (
        got_b3 == (13, 17, 23, 29, 43, 53, 61)
        and got_k5 == (7, 11, 13, 17, 29, 37)
        and got_b3 == _brute_admissible(B3, 61)
        and got_k5 == _brute_admissible(K5, 37)
        and got_q3 == _brute_admissible(Q3, 89)
    )
    verdict("10 admissible primes (B3, K5, brute-force)", ok, f"B3={got_b3} K5={got_k5}")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the printed Q3 list omits 83, but 83 is admissible "
    "(83*101 = 8383 = Q3(29) appears in the source's own spot-check table), "
    "so the pinned set contradicts the criterion's brute-force clause",
)
def test_10_admissible_primes_q3_as_printed():
    got = factorlab.admissible_primes(Q3, 89).primes
    ok = got == (11, 13, 31, 37, 73, 89)
    verdict("10 admissible primes (Q3 as printed)", ok, f"Q3<=89 -> {got}")


def test_11_q3_s1_coincidence():
    comp = factorlab.same_splitting(Q3, S1, 100)
    ok = comp.equal and Q3.discriminant == S1.discriminant == -403
    verdict(
        "11 Q3/S1 coincidence",
        ok,
        f"same_splitting={comp.equal} discriminants={Q3.discriminant},{S1.discriminant}",
    )


def test_12_table_one_windows():
    t0 = time.monotonic()
    b3 = factorlab.density_scan(B3, 16667, 16669)
    g1 = factorlab.density_scan(QuadPoly(10, -20, 23), 16675, 16676)
    elapsed = time.monotonic() - t0
    ok = (
        b3.records[0].value == 2500250003
        and b3.records[0].prime
        and b3.records[1].value == 2500550027
        and b3.records[1].factorization.factors == ((29, 1), (2731, 1), (31573, 1))
        and g1.records[0].value == 2780222773
        and g1.records[0].factorization.factors == ((23, 1), (2539, 1), (47609, 1))
        and elapsed < 1.0
    )
    verdict("12 table-1 windows", ok, f"verified in {elapsed:.3f}s")


def test_13_euler_split():
    arms = sqrt_spiral_counterparts(EULER)
    union = sorted(arm(t) for arm in arms for t in range(20))
    fx = load_fixtures()
    printed = {
        "P+41A": fx.find_arm("P+41A")[1].fits,
        "P+41B": fx.find_arm("P+41B")[1].fits,
        "P+41C": fx.find_arm("P+41C")[1].fits,
    }
    # each decimation appears among the printed fits of its arm
    ok = (
        union == [EULER(x) for x in range(60)]
        and arms[0] == printed["P+41A"][1]
        and arms[1] == printed["P+41B"][1]
        and arms[2] == printed["P+41C"][2]
    )
    verdict("13 Euler split", ok, f"arms={[str(a) for a in arms]}")


def test_14_composite_offset_curves():
    woes = []
    for num, den in ((1, 3), (1, 4)):
        a, b, _ = composite_params(num, den)
        curve = QuadPoly(a, b, 0)
        for x in range(2, 1001):
            fx_, fy = composite_factor(curve, x)
            if fx_ * fy != curve(x) or factorlab.is_prime(curve(x)):
                woes.append((num, den, x))
    verdict("14 composite curves", not woes, f"violations={woes or 'none'}")


def test_15_arm_chain_step_angle():
    woes = []
    for name, poly in (("A3", A3), ("B3", B3)):
        t = 10**4
        angle = spiral.angle_between(poly(t), poly(t + 1))
        if abs(angle - 6.0) > 1e-3:
            woes.append(f"{name}: {angle:.6f}")
    verdict("15 arm step angle", not woes, "; ".join(woes) or "A3, B3 at 6.000 rad")


def test_16_pronic_triangle_angle():
    got = pronic_triangle_angle(10**4)
    verdict(
        "16 pronic triangle angle",
        abs(got - (PI - 2)) <= 1e-2,
        f"angle={got:.6f} target={PI - 2:.6f}",
    )


def test_17a_residue_period_divides_k():
    rng = random.Random(20260810)
    for _ in range(10_000):
        p = QuadPoly(rng.randint(-40, 40), rng.randint(-200, 200), rng.randint(-200, 200))
        k = rng.randint(2, 100)
        assert k % len(residues.residue_cycle(p, k)) == 0
    verdict("17a residue periods", True, "10000 random trials, period | k")


def test_17b_gap_sums_equal_p():
    rng = random.Random(99)
    primes = [q for q in factorlab.primes_up_to(1000) if q >= 3]
    checked = 0
    for i in range(1000):
        p = QuadPoly(rng.randint(1, 40), rng.randint(-200, 200), rng.randint(-200, 200))
        q = rng.choice(primes)
        rc = factorlab.root_classes(p, q)
        if len(rc.roots) == 1:
            assert rc.gaps == (q,)
        elif len(rc.roots) == 2:
            assert sum(rc.gaps) == q
        if i < 100 and rc.roots and len(rc.roots) <= 2:
            hits = brute_roots(p, q, 10 * q)
            if len(hits) > 1:
                assert {b - a for a, b in itertools.pairwise(hits)} == set(rc.gaps)
                checked += 1
    verdict("17b gap sums", True, f"1000 trials (+{checked} scan-verified)")


def test_17c_fit_round_trips():
    rng = random.Random(7)
    for _ in range(500):
        p = QuadPoly(rng.randint(-30, 30), rng.randint(-200, 200), rng.randint(-200, 200))
        t0 = rng.randint(-40, 40)
        assert newton_fit(t0, [p(t0), p(t0 + 1), p(t0 + 2)]) == p
        s = rng.randint(-12, 12)
        assert shift(shift(p, s), -s) == p
        m = rng.randint(1, 4)
        assert decimate(p, 1, 0) == p
        union = sorted(decimate(p, m, r)(t) for r in range(m) for t in range(8))
        assert union == sorted(p(x) for x in range(8 * m))
    verdict("17c fit round trips", True, "newton/shift/decimate, 500 random trials")


def test_17d_deterministic_outputs(capsys, tmp_path):
    runs = []
    for _ in range(2):
        main(["--json", "density", "B3", "--at", "2.5e9"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["schema_version"] == 2
    svgs = []
    for name in ("x.svg", "y.svg"):
        path = tmp_path / name
        main(["plot", "number-spiral", "--n", "400", "--out", str(path)])
        capsys.readouterr()
        svgs.append(path.read_bytes())
    assert svgs[0] == svgs[1]
    verdict("17d deterministic outputs", True, "JSON and SVG byte-identical across runs")
