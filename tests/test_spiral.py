"""Spiral-core: per-triangle angles, cumulative sums, asymptotics, limits."""

import importlib.util
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootspiral import spiral

PI = math.pi


def arctan_series(x: float, terms: int = 60) -> float:
    """Taylor oracle for arctan on |x| < 1, independent of math.atan."""
    return math.fsum((-1) ** k * x ** (2 * k + 1) / (2 * k + 1) for k in range(terms))


def fsum_angle(n: int) -> float:
    """Correctly rounded sum of the float64 increments for k = 1 .. n-1."""
    return math.fsum(np.arctan(1.0 / np.sqrt(np.arange(1, n, dtype=np.float64))).tolist())


def one_array_sum(lo: int, hi: int) -> float:
    """numpy's pairwise sum of the increments for k in [lo, hi), taken as one array."""
    return float(np.arctan(1.0 / np.sqrt(np.arange(lo, hi, dtype=np.float64))).sum())


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


@pytest.fixture
def empty_table(monkeypatch):
    """Reset the prefix table now and on each call to the state of a fresh import of
    the module; the shared one is restored afterwards."""
    spec = importlib.util.find_spec(spiral.__name__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)

    def empty():
        monkeypatch.setattr(spiral, "_prefix", fresh._prefix)
        monkeypatch.setattr(spiral, "_units", fresh._units)

    empty()
    return empty


@pytest.fixture
def empty_memo(monkeypatch):
    """Empty the chunk-sum memo now and on each call; the shared one is restored afterwards."""

    def empty():
        monkeypatch.setattr(spiral, "_chunks", [])

    empty()
    return empty


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


class TestIncrements:
    def test_in_place_equals_the_expression(self):
        n = spiral._AUTO_TABLE_LIMIT
        expected = np.arctan(1.0 / np.sqrt(np.arange(1, n, dtype=np.float64)))
        assert np.array_equal(spiral._increments(1, n).view(np.int64), expected.view(np.int64))

    def test_libm_increment_within_one_ulp_of_the_summed_one(self):
        # angle_increment uses libm's atan, the sums numpy's vectorised arctan;
        # the two may round differently (numpy with AVX-512 does at k = 68)
        summed = spiral._increments(1, 1 << 16)
        libm = np.array([spiral.angle_increment(k) for k in range(1, 1 << 16)])
        assert bool(np.all(np.abs(libm - summed) <= np.spacing(summed)))


class TestBlockedSum:
    BLOCK = 1 << 16

    @pytest.mark.parametrize("lo", [1, 2_200_001, 10**8])
    @pytest.mark.parametrize(
        "length", [1, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, (1 << 21) - 1, 1 << 21]
    )
    def test_equals_one_array_sum(self, lo, length):
        assert spiral._increment_sum(lo, lo + length) == one_array_sum(lo, lo + length)

    @settings(max_examples=30, deadline=None)
    @given(lo=st.integers(1, 10**9), length=st.integers(0, 1 << 21))
    def test_equals_one_array_sum_anywhere(self, lo, length):
        assert spiral._increment_sum(lo, lo + length) == one_array_sum(lo, lo + length)

    def test_chunk_peaks_below_2mb(self):
        spiral._increments(1, 2)  # import numpy outside the traced region
        tracemalloc.start()
        try:
            spiral.angle_between(1, 1 + spiral._STREAM_CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestAnglesBetween:
    def each(self, spans):
        return [spiral.angle_between(n1, n2) for n1, n2 in spans]

    def test_overlapping_chain_steps(self):
        seed = 10**8
        spans = [(seed + 10 * d, seed + 11 * d + 180) for d in range(62_818, 62_848, 2)]
        assert spiral.angles_between(spans) == self.each(spans)

    def test_spans_longer_than_a_chunk(self):
        a, chunk = 10**8, spiral._STREAM_CHUNK
        spans = [(a, a + chunk + 100), (a + 8, a + 2 * chunk + 9), (a + 3, a + 3)]
        assert spiral.angles_between(spans) == self.each(spans)

    def test_spans_too_far_apart_to_share(self):
        spans = [(1, 5000), (10**8, 10**8 + 70_000), (17, 53)]
        assert spiral.angles_between(spans) == self.each(spans)

    def test_empty(self):
        assert spiral.angles_between([]) == []
        assert spiral.angles_between([(5, 5)]) == [0.0]

    def test_domain(self):
        with pytest.raises(ValueError):
            spiral.angles_between([(1, 10), (10, 9)])
        with pytest.raises(ValueError):
            spiral.angles_between([(0, 10)])


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
        # the float64 quantization of the running total
        prefix = spiral._prefix_table(10**6)[: 10**6 + 1]
        incs = np.arctan(1.0 / np.sqrt(np.arange(1, 10**6 + 1, dtype=np.float64)))
        err = np.abs(np.diff(prefix) - incs)
        assert float(np.max(err / np.maximum(1.0, prefix[1:]))) < 1e-12
        assert bool(np.all(np.diff(prefix) > 0))  # strictly increasing

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 4097, 65536, 1_000_001, 2_200_000])
    def test_table_is_correctly_rounded(self, n):
        assert spiral.total_angle(n) == fsum_angle(n)

    def test_correctly_rounded_around_each_growth(self, empty_table):
        for n in (2, 5, 40, 1000, 70_000):
            spiral.total_angle(n)
            size = len(spiral._prefix)
            # the last entry of this growth and the first of the next
            for m in (size, size + 1, size + 2):
                assert spiral.total_angle(m) == fsum_angle(m), m

    def test_staged_growth_equals_one_step(self, empty_table):
        for n in (1, 2, 3, 7, 5000, 123_457, 10**6, 2_200_000):
            spiral.total_angle(n)
        staged = spiral._prefix
        empty_table()
        one_step = spiral._prefix_table(2_199_999)
        assert len(staged) == len(one_step) == 2_200_000
        assert np.array_equal(staged, one_step)

    def test_block_edges_equal_one_step(self, empty_table):
        block = spiral._TABLE_BLOCK
        sizes = (block - 1, block, block + 1, 3 * block + 1)
        one_step = spiral._prefix_table(spiral._AUTO_TABLE_LIMIT - 1).view(np.int64)
        for size in sizes:  # each grown from the initial state
            empty_table()
            grown = spiral._prefix_table(size - 1)
            assert len(grown) == size
            assert np.array_equal(grown.view(np.int64), one_step[:size]), size
        empty_table()
        for size in sizes:  # one table grown in stages
            grown = spiral._prefix_table(size - 1)
            assert np.array_equal(grown.view(np.int64), one_step[: len(grown)]), size
        staged = spiral._prefix_table(spiral._AUTO_TABLE_LIMIT - 1)
        assert np.array_equal(staged.view(np.int64), one_step)

    def test_table_build_peaks_below_twice_its_size(self, empty_table):
        tracemalloc.start()
        try:
            table = spiral._prefix_table(spiral._AUTO_TABLE_LIMIT - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == spiral._AUTO_TABLE_LIMIT
        assert peak < 2 * table.nbytes

    def test_returns_python_float(self):
        for n in (1000, spiral._AUTO_TABLE_LIMIT + 1):  # table and streamed
            assert type(spiral.total_angle(n)) is float
        assert type(spiral.polar_of(1000).angle_total) is float

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_memo_equals_streaming_from_one_at_chunk_boundaries(self, empty_memo, j):
        for offset in (-1, 0, 1, 2):
            n = 1 + j * spiral._STREAM_CHUNK + offset
            assert spiral.total_angle(n) == spiral._streamed_angle(1, n), n

    def test_memo_equals_streaming_from_one_past_the_table(self, empty_memo):
        for n in (spiral._AUTO_TABLE_LIMIT + 1, spiral._AUTO_TABLE_LIMIT + 2):
            assert spiral.total_angle(n) == spiral._streamed_angle(1, n), n

    def test_memo_grown_in_stages_equals_one_step(self, empty_memo):
        chunk = spiral._STREAM_CHUNK
        for n in (spiral._AUTO_TABLE_LIMIT + 1, 1 + 3 * chunk, 1 + 3 * chunk + 5, 5 * chunk):
            spiral.total_angle(n)
        staged = spiral._chunks
        empty_memo()
        spiral.total_angle(5 * chunk)
        assert len(staged) == 4 and staged == spiral._chunks

    def test_streamed_matches_table(self):
        n = 50_000
        table_value = spiral.total_angle(n)
        assert spiral._streamed_angle(1, n) == pytest.approx(table_value, abs=1e-10)


class TestTotalAngleFast:
    @pytest.mark.parametrize("n", [10**4, 3 * 10**4, 10**5, 10**6, 10**7])
    def test_matches_direct_sum(self, n):
        assert abs(spiral.total_angle_fast(n) - spiral.total_angle(n)) < 1e-8

    def test_below_threshold_falls_back_to_direct(self):
        assert spiral.total_angle_fast(100) == spiral.total_angle(100)


class TestEstimateC2:
    def test_raw_low_precision(self):
        assert abs(spiral.estimate_c2(100, accelerate=False) - (-2.1578)) < 0.05

    def test_raw_monotone_from_above(self):
        raws = [spiral.estimate_c2(k, accelerate=False) for k in (100, 1000, 10**4, 10**5)]
        assert all(r > spiral.C2 for r in raws)
        assert raws == sorted(raws, reverse=True)

    def test_accelerated_small_k(self):
        assert abs(spiral.estimate_c2(1000) - spiral.C2) < 1e-9

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

    @pytest.mark.parametrize("n", [100, 10**4, 10**6])
    def test_matches_mpmath_root(self, n):
        assert abs(spiral.winding_gap(n) - mp_winding_gap(n)) < 1e-12

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


class TestDeltaR:
    def test_first_values(self):
        assert spiral.delta_r(1) == pytest.approx(math.sqrt(2) - 1)
        assert spiral.delta_r(4) == pytest.approx(math.sqrt(5) - 2)

    def test_taylor_bound(self):
        for n in (1, 10, 1000, 10**6):
            err = abs(spiral.delta_r(n) - 0.5 / math.sqrt(n))
            assert err <= 0.25 * n**-1.5

    def test_millionth_step(self):
        assert spiral.delta_r(10**6) == pytest.approx(0.0005, abs=1.3e-10)


class TestAngleBetween:
    def test_matches_total_angle(self):
        assert spiral.angle_between(1, 1000) == pytest.approx(
            spiral.total_angle(1000), abs=1e-10
        )

    def test_empty_range(self):
        assert spiral.angle_between(5, 5) == 0.0

    def test_additivity(self):
        whole = spiral.angle_between(10, 5000)
        split = spiral.angle_between(10, 700) + spiral.angle_between(700, 5000)
        assert whole == pytest.approx(split, abs=1e-10)


def test_constants_record():
    assert round(spiral.C2, 12) == -2.157782996659


def test_concurrent_table_growth():
    def worker(n):
        return spiral.total_angle(n)

    ns = [1000, 50_000, 120_000, 7, 90_000, 121_000] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, ns))
    for n, got in zip(ns, results):
        assert got == spiral.total_angle(n)


def test_concurrent_memo_growth(empty_memo):
    chunk = spiral._STREAM_CHUNK
    ns = [spiral._AUTO_TABLE_LIMIT + 1, 1 + 3 * chunk, 4 * chunk + 7, 1 + 2 * chunk]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(spiral.total_angle, ns, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(spiral._chunks) == 4  # a chunk appended twice would lengthen the memo
    for n, got in zip(ns, results):
        assert got == spiral.total_angle(n) == spiral._streamed_angle(1, n)


def test_memo_streams_without_the_lock(empty_memo, monkeypatch):
    held = []
    increments = spiral._increments

    def spy(lo, hi):
        held.append(spiral._lock.locked())
        return increments(lo, hi)

    monkeypatch.setattr(spiral, "_increments", spy)
    spiral.total_angle(1 + 3 * spiral._STREAM_CHUNK + 5)
    # three full chunks of _STREAM_CHUNK // _TABLE_BLOCK blocks each, then one 5-term block
    blocks = 3 * (spiral._STREAM_CHUNK // spiral._TABLE_BLOCK) + 1
    assert len(held) == blocks == 97 and not any(held)
