"""Spiral-core: per-triangle angles, cumulative sums, asymptotics, limits."""

import functools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootspiral import spiral

PI = math.pi


def arctan_series(x: float, terms: int = 60) -> float:
    """Taylor oracle for arctan on |x| < 1, independent of math.atan."""
    return math.fsum((-1) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(terms))


def fsum_span(lo: int, hi: int) -> float:
    """Correctly rounded sum of the float64 increments for k in [lo, hi)."""
    return math.fsum(np.arctan(1.0 / np.sqrt(np.arange(lo, hi, dtype=np.float64))).tolist())


def mp_winding_gap(n: int) -> float:
    """Winding gap from increments and a piecewise-linear root in 30 digits."""
    with mpmath.workdps(30):
        target, turned, k = 2 * mpmath.pi, mpmath.mpf(0), n
        while True:
            inc = mpmath.atan(1 / mpmath.sqrt(k))
            if turned + inc >= target:
                m = k + (target - turned) / inc
                return float(mpmath.sqrt(m) - mpmath.sqrt(n))
            turned += inc
            k += 1


N0 = 4096  # total_angle reads its table up to here and the closed form above
DPS = 40  # digits of the mpmath oracles


@functools.cache
def em_coefficients(terms: int = 8) -> tuple:
    """a_1 .. a_terms of sum_{k<n} arctan(k^-1/2) - 2 sqrt(n) - C in powers n^-(2j-1)/2.

    arctan(k^-1/2) = sum_m c_m k^-s with c_m = (-1)^m/(2m+1) and s = m + 1/2,
    and by Euler-Maclaurin sum_{k<n} k^-s = zeta(s) + n^(1-s)/(1-s) - n^-s/2
    - sum_i B_2i/(2i)! (s)_(2i-1) n^-(s+2i-1), with (s)_r the rising factorial.
    """
    a = {j: sympy.Integer(0) for j in range(1, terms + 1)}
    for m in range(terms + 1):
        c, s = sympy.Rational((-1) ** m, 2 * m + 1), sympy.Rational(2 * m + 1, 2)
        # (j, coefficient of n^-(2j-1)/2)
        parts = [(m, c / (1 - s)), (m + 1, -c / 2)]
        parts += [
            (m + 2 * i, -c * sympy.bernoulli(2 * i) / sympy.factorial(2 * i) * sympy.rf(s, 2 * i - 1))
            for i in range(1, terms // 2 + 1)
        ]
        for j, coefficient in parts:
            if 1 <= j <= terms:
                a[j] += coefficient
    return tuple(a[j] for j in range(1, terms + 1))


def mp_series(n: int) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return mpmath.fsum(
            mpmath.mpf(a.p) / a.q * mpmath.mpf(n) ** (mpmath.mpf(1 - 2 * j) / 2)
            for j, a in enumerate(em_coefficients(), start=1)
        )


@functools.cache
def mp_direct_sums() -> dict:
    """sum_{k<n} arctan(k^-1/2) for n = N0 + 1 and 2e4, summed directly in DPS digits."""
    sums = {}
    with mpmath.workdps(DPS):
        total = mpmath.mpf(0)
        for k in range(1, 2 * 10**4):
            total += mpmath.atan(1 / mpmath.sqrt(k))
            if k + 1 in (N0 + 1, 2 * 10**4):
                sums[k + 1] = total
    return sums


@functools.cache
def mp_constant() -> mpmath.mpf:
    """C from the direct sum to 2e4 and the series there."""
    n = 2 * 10**4
    with mpmath.workdps(DPS):
        return mp_direct_sums()[n] - 2 * mpmath.sqrt(n) - mp_series(n)


def mp_total_angle(n: int) -> mpmath.mpf:
    """The expansion in DPS digits: the true sum to ~1e-34 from n = N0 on."""
    with mpmath.workdps(DPS):
        return 2 * mpmath.sqrt(n) + mp_constant() + mp_series(n)


@functools.cache
def mp_table() -> tuple:
    """sum_{k<n} arctan(k^-1/2) for n = 1 .. N0 + 1, summed directly in DPS digits."""
    sums = [mpmath.mpf(0)]
    with mpmath.workdps(DPS):
        for k in range(1, N0 + 1):
            sums.append(sums[-1] + mpmath.atan(1 / mpmath.sqrt(k)))
    return tuple(sums)


def mp_angle(n: int) -> mpmath.mpf:
    """The true sum_{k<n} arctan(k^-1/2): direct up to N0 + 1, the expansion above."""
    return mp_table()[n - 1] if n <= N0 + 1 else mp_total_angle(n)


class TestAngleIncrement:
    def test_unit_triangle_is_45_degrees(self):
        assert spiral.angle_increment(1) == pytest.approx(PI / 4, abs=1e-15)

    def test_n3_is_30_degrees(self):
        assert spiral.angle_increment(3) == pytest.approx(PI / 6, abs=1e-15)

    def test_n16_against_taylor_oracle(self):
        assert spiral.angle_increment(16) == pytest.approx(arctan_series(0.25), abs=1e-14)
        assert spiral.angle_increment(16) == pytest.approx(0.2449786631, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            spiral.angle_increment(0)

    def test_monotone_decreasing(self):
        vals = [spiral.angle_increment(n) for n in (1, 2, 3, 10, 100, 10**6)]
        assert vals == sorted(vals, reverse=True)


def _oracle_angle_between(n1: int, n2: int) -> float:
    """angle_between as it stood before the cached index block: the head below
    N0 as the correctly rounded sum of its math.atan increments, each 2^16 block
    from max(n1, N0) as ndarray.sum of the increments of a fresh arange, and
    the pieces merged with math.fsum."""
    block = 1 << 16
    head = math.fsum(map(spiral.angle_increment, range(n1, min(n2, N0))))
    tail = (float(np.arctan(1.0 / np.sqrt(np.arange(a, min(a + block, n2), dtype=np.float64))).sum())
            for a in range(max(n1, N0), n2, block))
    return math.fsum([head, *tail])


class TestIncrements:
    def test_in_place_equals_the_expression(self):
        # every 2^16 block of [1, 2.2e6), the k the one-array form of this test took
        n, block = 2_200_000, 1 << 16
        for lo in range(1, n, block):
            hi = min(lo + block, n)
            expected = np.arctan(1.0 / np.sqrt(np.arange(lo, hi, dtype=np.float64)))
            assert np.array_equal(spiral._increments(lo, hi).view(np.int64), expected.view(np.int64))
        assert not spiral._INDEX.flags.writeable

    def test_libm_increment_within_one_ulp_of_the_summed_one(self):
        # angle_increment uses libm's atan, the sums numpy's vectorised arctan;
        # the two may round differently (numpy with AVX-512 does at k = 68)
        summed = spiral._increments(1, 1 << 16)
        libm = np.array([spiral.angle_increment(k) for k in range(1, 1 << 16)])
        assert bool(np.all(np.abs(libm - summed) <= np.spacing(summed)))


class TestBlockedSum:
    BLOCK = 1 << 16

    @staticmethod
    def assert_within_2_ulp_of_fsum(lo, length):
        exact = fsum_span(lo, lo + length)
        assert abs(spiral.angle_between(lo, lo + length) - exact) <= 2 * math.ulp(exact)

    @pytest.mark.parametrize("lo", [1, 4000, 2_200_001, 10**8])  # 4000: head in the table
    @pytest.mark.parametrize(
        "length", [1, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, (1 << 21) - 1, 1 << 21]
    )
    def test_within_2_ulp_of_fsum(self, lo, length):
        self.assert_within_2_ulp_of_fsum(lo, length)

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(1, 10**9), length=st.integers(0, 1 << 21))
    def test_within_2_ulp_of_fsum_anywhere(self, lo, length):
        self.assert_within_2_ulp_of_fsum(lo, length)

    @settings(max_examples=60, deadline=None)
    @given(n1=st.integers(1, 10**9), length=st.integers(0, 3 * (1 << 16) + 7))
    @example(n1=1, length=N0 - 1)  # the whole table, no block
    @example(n1=N0 - 1, length=1)
    @example(n1=N0 - 1, length=2)  # one table term and one block term
    @example(n1=N0, length=0)
    @example(n1=N0, length=1 << 16)  # exactly one block
    @example(n1=N0, length=(1 << 16) + 1)
    @example(n1=N0 + 1, length=(1 << 16) - 1)
    @example(n1=N0 - 5, length=(1 << 16) + 5)  # a head and exactly one block
    @example(n1=10**9, length=2 * (1 << 16))
    @example(n1=10**9, length=3 * (1 << 16) + 7)
    def test_same_bits_as_the_reference(self, n1, length):
        got = spiral.angle_between(n1, n1 + length)
        assert got.hex() == _oracle_angle_between(n1, n1 + length).hex()

    def test_chunk_peaks_below_2mb(self):
        spiral._increments(1, 2)  # import numpy outside the traced region
        tracemalloc.start()
        try:
            spiral.angle_between(1, 1 + (1 << 21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestTotalAngle:
    def test_empty_sum(self):
        assert spiral.total_angle(1) == 0.0

    def test_single_triangle(self):
        assert spiral.total_angle(2) == pytest.approx(PI / 4, abs=1e-15)

    def test_sqrt17_appendix_row(self):
        # published polar-coordinate table for arm B3, first row
        assert spiral.appendix_angle_deg(17) == pytest.approx(8.84957988, abs=1e-5)
        assert math.degrees(spiral.total_angle(17)) == pytest.approx(351.15042, abs=1e-4)

    def test_appendix_rows_beyond_17_informational(self):
        # the sqrt(53) row also reproduces exactly; the later rows carry
        # visible measurement error in the source and are only bounded
        assert spiral.appendix_angle_deg(53) == pytest.approx(8.08226071, abs=1e-5)
        for n, printed in ((107, 17.36077355), (179, 29.78532935), (269, 43.60654265)):
            assert spiral.appendix_angle_deg(n) == pytest.approx(printed, abs=5e-3)

    def test_increment_consistency_over_table(self):
        # total_angle(n+1) - total_angle(n) equals the increment to within
        # the float64 quantization of the running total, across N0
        totals = np.array([spiral.total_angle(n) for n in range(1, 2 * 10**5 + 1)])
        incs = np.array([spiral.angle_increment(k) for k in range(1, 2 * 10**5)])
        err = np.abs(np.diff(totals) - incs)
        assert float(np.max(err / np.maximum(1.0, totals[1:]))) < 1e-12
        assert bool(np.all(np.diff(totals) > 0))  # strictly increasing

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 4097, 65536, 1_000_001, 2_200_000])
    def test_table_is_correctly_rounded(self, n):
        # the table rounds the sum of the math.atan increments, the closed
        # form the true sum
        if n <= N0:
            assert spiral.total_angle(n) == math.fsum(map(spiral.angle_increment, range(1, n)))
        else:
            assert spiral.total_angle(n) == float(mp_total_angle(n))

    def test_returns_python_float(self):
        for n in (1000, 10**6):  # table and closed form
            assert type(spiral.total_angle(n)) is float
        assert type(spiral.polar_of(1000).angle_total) is float

    def test_exact_range_ends_at_2_53(self):
        assert spiral.total_angle(2**53) == pytest.approx(2 * 2**26.5 + spiral.C2, rel=1e-15)
        assert spiral.polar_of(2**53).angle_total == spiral.total_angle(2**53)
        for f in (spiral.total_angle, spiral.polar_of):
            with pytest.raises(OverflowError, match="2\\^53"):
                f(2**53 + 1)

    def test_streamed_matches_table(self):
        n = 50_000
        table_value = spiral.total_angle(n)
        assert spiral.angle_between(1, n) == pytest.approx(table_value, abs=1e-10)


class TestClosedForm:
    def test_coefficients_follow_from_euler_maclaurin(self):
        a = em_coefficients()
        assert a == (
            sympy.Rational(1, 6), sympy.Rational(-1, 120), sympy.Rational(-1, 840),
            sympy.Rational(5, 8064), sympy.Rational(1, 4224), sympy.Rational(-521, 2196480),
            sympy.Rational(-29, 199680), sympy.Rational(1067, 5013504),
        )
        assert [float(x) for x in reversed(a)] == list(spiral._SERIES)

    def test_constant_from_direct_sum(self):
        with mpmath.workdps(DPS):
            literal = mpmath.mpf(spiral.C2) + mpmath.mpf(spiral._C2_LO)
            assert abs(mp_constant() - literal) < mpmath.mpf("1e-25")
            # the eight-term series is exact to far below double precision at N0 + 1
            assert abs(mp_direct_sums()[N0 + 1] - mp_total_angle(N0 + 1)) < mpmath.mpf("1e-30")

    def test_table_equals_fsum_of_the_increments(self):
        incs = []
        for n in range(1, N0 + 2):  # the table, and the closed form at N0 + 1
            assert spiral.total_angle(n) == math.fsum(incs), n
            incs.append(spiral.angle_increment(n))

    def test_within_half_ulp_of_mpmath(self):
        rng = random.Random(12)
        ns = {N0 + 1, 10**12}
        while len(ns) < 1000:  # log-uniform over (N0, 1e12]
            ns.add(round(10 ** rng.uniform(math.log10(N0 + 1), 12)))
        for n in sorted(ns):
            got = spiral.total_angle(n)
            with mpmath.workdps(DPS):
                assert abs(mpmath.mpf(got) - mp_total_angle(n)) <= math.ulp(got) / 2, n


class TestSpan:
    """The closed-form span against 40-digit mpmath sums."""

    @staticmethod
    def spans(rng, lo, hi, count):
        """count spans with n1 log-uniform in [lo, hi], each about one wind long or shorter."""
        out = []
        for _ in range(count):
            n1 = round(10 ** rng.uniform(math.log10(lo), math.log10(hi)))
            out.append((n1, n1 + rng.randint(0, math.ceil(2 * PI * math.sqrt(n1)) + 30)))
        return out

    @staticmethod
    def error(n1, n2) -> float:
        with mpmath.workdps(DPS):
            return abs(float(mpmath.mpf(spiral._span(n1, n2)) - (mp_angle(n2) - mp_angle(n1))))

    def test_in_the_table_and_across_it(self):
        rng = random.Random(3)
        spans = [(1, 1), (1, N0), (1, N0 + 1), (N0, N0 + 1), (N0, N0 + 500)]
        spans += [(n1, min(n2, N0)) for n1, n2 in self.spans(rng, 1, N0, 300)]
        spans += [(rng.randint(N0 - 500, N0), rng.randint(N0 + 1, N0 + 500)) for _ in range(100)]
        for n1, n2 in spans:
            assert self.error(n1, n2) <= 4e-14, (n1, n2)

    def test_above_the_table_within_2_ulp(self):
        rng = random.Random(4)
        spans = [(N0 + 1, N0 + 2), (10**8, 10**8), (10**9, 10**9 + 198_700), (10**8, 10**9)]
        spans += self.spans(rng, N0 + 1, 10**9, 300)
        for n1, n2 in spans:
            assert self.error(n1, n2) <= 2 * math.ulp(spiral._span(n1, n2)), (n1, n2)


class TestAnglesBetween:
    """A chain's spans in both forms: streamed by angle_between, closed by _span."""

    def test_empty(self):
        for n in (1, 5, N0, N0 + 1, 10**8):
            assert spiral.angle_between(n, n) == 0.0
            assert spiral._span(n, n) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            [spiral.angle_between(n1, n2) for n1, n2 in [(1, 10), (10, 9)]]
        for span in (spiral.angle_between, spiral._span):
            with pytest.raises(ValueError):
                span(0, 10)

    def test_inside_the_table_is_the_fsum_of_the_increments(self):
        rng = random.Random(5)
        spans = [(1, 2), (1, N0), (N0 - 1, N0), (17, 53), (53, 107)]
        spans += [tuple(sorted(rng.sample(range(1, N0 + 1), 2))) for _ in range(300)]
        for n1, n2 in spans:
            exact = math.fsum(map(spiral.angle_increment, range(n1, n2)))
            assert spiral.angle_between(n1, n2) == exact == spiral._span(n1, n2), (n1, n2)


class TestEstimateC2:
    def test_raw_low_precision(self):
        assert abs(spiral.estimate_c2(100, accelerate=False) - (-2.1578)) < 0.05

    def test_raw_monotone_from_above(self):
        raws = [spiral.estimate_c2(k, accelerate=False) for k in (100, 1000, 10**4, 10**5)]
        assert all(r > spiral.C2 for r in raws)
        assert raws == sorted(raws, reverse=True)

    def test_accelerated_small_k(self):
        assert abs(spiral.estimate_c2(1000) - spiral.C2) < 1e-9

    def test_at_the_table_end_within_4e_minus_15_of_mpmath(self):
        # a direct sum read from the exact table: no streaming, and closer
        # to C than the streamed estimate_c2(10**6) (1.3e-13 off)
        with mpmath.workdps(DPS):
            assert abs(mpmath.mpf(spiral.estimate_c2(N0)) - mp_constant()) < 4e-15

    def test_sums_directly_not_through_the_closed_form(self, monkeypatch):
        monkeypatch.setattr(spiral, "C2", 0.0)  # the closed form would read this back
        assert abs(spiral.estimate_c2(10**5) - (-2.157782996659)) < 1e-9

    def test_accelerated_constant_across_k(self):
        vals = [spiral.estimate_c2(k) for k in (10**5, 10**6, 10**7)]
        assert max(vals) - min(vals) < 1e-9

    def test_raw_at_1e8_within_1e_minus_4(self):
        assert abs(spiral.estimate_c2(10**8, accelerate=False) - (-2.1578)) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            spiral.estimate_c2(1)


class TestPolarOf:
    def test_origin_ray(self):
        pt = spiral.polar_of(1)
        assert (pt.radius, pt.angle_total, pt.wind) == (1.0, 0.0, 0)

    def test_second_ray(self):
        pt = spiral.polar_of(2)
        assert pt.radius == pytest.approx(math.sqrt(2))
        assert pt.angle_total == pytest.approx(PI / 4)
        assert pt.wind == 0

    def test_first_wind_closes_after_17(self):
        assert spiral.polar_of(17).wind == 0
        assert spiral.polar_of(18).wind == 1

    def test_radius_squared_inverts(self):
        for n in (1, 2, 17, 1000, 999_983):
            pt = spiral.polar_of(n)
            assert abs(pt.radius**2 - n) <= 4 * math.ulp(float(n))

    def test_wind_is_floor_of_angle(self):
        for n in (2, 17, 18, 100, 5000):
            pt = spiral.polar_of(n)
            assert pt.wind == int(pt.angle_total // (2 * PI))


class TestWindingGap:
    def test_small_n(self):
        assert abs(spiral.winding_gap(100) - PI) < 0.05

    def test_medium_n(self):
        assert abs(spiral.winding_gap(10**4) - PI) < 0.01

    @pytest.mark.parametrize("n", [100, 4095, 4097, 10**4, 10**6, 10**7])
    def test_matches_mpmath_root(self, n):
        assert abs(spiral.winding_gap(n) - mp_winding_gap(n)) < 2e-14

    def test_approaches_pi_from_above(self):
        gaps = [spiral.winding_gap(n) for n in (100, 1000, 10**4, 10**5)]
        assert all(g > PI for g in gaps)
        assert gaps == sorted(gaps, reverse=True)


class TestSquareArmAngle:
    def test_m10_within_a_degree(self):
        assert abs(spiral.square_arm_angle(10) - 114.59) < 1.0

    def test_wind_to_wind_angle_identity(self):
        # three square steps almost close the circle; the leftover is the
        # wind-to-wind angle between squares
        assert 360.0 - 3 * (360.0 / PI) == pytest.approx(16.2253, abs=1e-4)

    def test_three_arm_structure(self):
        # Squares advance ~3 per wind: successive squares sit 360/pi apart
        # and the triple leaves the 16.23-degree closing arc, so each wind
        # shows three arms roughly (not exactly) trisecting the circle.
        step_limit = 360.0 / PI
        for m in (100, 316, 999):
            step = spiral.square_arm_angle(m)
            assert abs(step - step_limit) < 0.5
            arcs = (step, step, 360.0 - 2 * step)
            assert max(abs(a - 120.0) for a in arcs) < 11.0

    def test_domain(self):
        with pytest.raises(ValueError):
            spiral.square_arm_angle(1)


class TestAngleBetween:
    def test_matches_total_angle(self):
        assert spiral.angle_between(1, 1000) == pytest.approx(
            spiral.total_angle(1000), abs=1e-10
        )

    def test_empty_range(self):
        for n in (1, 5, 10**8):
            assert spiral.angle_between(n, n) == 0.0

    @pytest.mark.parametrize("n1, n2", [(0, 5), (10, 9)])
    def test_domain(self, n1, n2):
        with pytest.raises(ValueError):
            spiral.angle_between(n1, n2)

    def test_additivity(self):
        whole = spiral.angle_between(10, 5000)
        split = spiral.angle_between(10, 700) + spiral.angle_between(700, 5000)
        assert whole == pytest.approx(split, abs=1e-10)


def test_constants_record():
    assert round(spiral.C2, 12) == -2.157782996659


def test_total_angle_from_threads_matches_serial():
    # total_angle reads the prefix table up to n = _N0 = 4096 and the closed
    # form from 4097 on
    ns = [7, 1000, 4096, 4097, 50_000, 90_000, 120_000, 121_000] * 4
    expected = [spiral.total_angle(n) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(spiral.total_angle, ns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
