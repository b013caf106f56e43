"""Fixture file: parsing, integrity, round-tripping, lookups."""

import pytest

from rootspiral.fixtures import (
    FixtureError,
    fixture_text,
    load_fixtures,
    parse_fixtures,
    serialize_records,
)
from rootspiral.quad import newton_fit, shift


@pytest.fixture(scope="module")
def fx():
    return load_fixtures()


def test_table_counts(fx):
    counts = {w: sum(len(s.arms) for s in fx.table_systems(w)) for w in ("6A", "6B", "6C", "7")}
    assert counts == {"6A": 36, "6B": 36, "6C": 33, "7": 4}
    assert len(fx.table_systems("6A")) == 3
    assert len(fx.table_systems("6B")) == 12
    assert len(fx.table_systems("6C")) == 11
    assert len(fx.table_systems("7")) == 2


def test_extras_present(fx):
    names = {arm.name for system in fx.extras for arm in system.arms}
    assert names == {"B33", "K5"}


def test_round_trip_byte_identical(fx):
    text = fixture_text()
    record_lines = "".join(
        line + "\n" for line in text.splitlines() if line.strip() and not line.startswith("#")
    )
    assert serialize_records(fx) == record_lines
    assert serialize_records(parse_fixtures(text)) == record_lines


def test_every_arm_is_internally_consistent(fx):
    for system in fx.systems + fx.extras:
        for arm in system.arms:
            assert len(arm.terms) == 6
            assert len(arm.fits) == 4
            assert newton_fit(1, arm.terms[:3]) == arm.fits[0]
            for m in range(1, 4):
                assert shift(arm.fits[m - 1], 1) == arm.fits[m]
            for x in range(1, 7):
                assert arm.poly(x) == arm.terms[x - 1]
            assert arm.poly.d2 == system.d2


def test_window_specs_reproduce_table_rows(fx):
    firsts = {
        ("P18-B/B3", "start"): 17,
        ("P18-B/B3", "2.5e6"): 2504303,
        ("P18-B/B3", "2.5e7"): 25025003,
        ("P18-B/B3", "2.5e8"): 250003529,
        ("P18-B/B3", "2.5e9"): 2500250003,
        ("N22-Q/Q3", "start"): 13,
        ("N22-Q/Q3", "2.5e6"): 3050287,
        ("N22-Q/Q3", "2.5e9"): 3055527787,
        ("P20-G/G1", "start"): 103,
        ("P20-G/G1", "2.5e6"): 2798423,
        ("P20-G/G1", "2.5e9"): 2778555623,
    }
    seen = set()
    for w in fx.windows:
        key = (f"{w.system}/{w.arm}", w.label)
        _, arm = fx.find_arm(f"{w.system}/{w.arm}")
        if key in firsts:
            assert arm.poly(w.start_x) == firsts[key], key
            seen.add(key)
    assert seen == set(firsts)


def test_k5_reference_rows_multiply_out(fx):
    for ref in fx.k5_factors:
        prod = 1
        for part in ref.factors.split("*"):
            if "^" in part:
                base, exp = part.split("^")
                prod *= int(base) ** int(exp)
            else:
                prod *= int(part)
        assert prod == ref.value


class TestFindArm:
    def test_bare_unique(self, fx):
        system, arm = fx.find_arm("B3")
        assert system.name == "P18-B" and str(arm.poly) == "9x^2 + 9x - 1"

    def test_prefixed(self, fx):
        system, arm = fx.find_arm("P20-G1")
        assert system.name == "P20-G" and str(arm.poly) == "10x^2 - 20x + 23"

    def test_qualified(self, fx):
        system, arm = fx.find_arm("N20-G/G1")
        assert str(arm.poly) == "10x^2 - 20x + 19"

    def test_ambiguous_bare_name(self, fx):
        with pytest.raises(KeyError, match="ambiguous"):
            fx.find_arm("G1")

    def test_unknown(self, fx):
        with pytest.raises(KeyError):
            fx.find_arm("Z9")

    def test_extra_arm(self, fx):
        _, arm = fx.find_arm("B33")
        assert str(arm.poly) == "9x^2 - 9x + 89"


class TestParseErrors:
    def test_bad_integer_reports_line(self):
        bad = "arm\tP18-A\tA1\tP\t18\t9\t3\tx\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n"
        with pytest.raises(FixtureError, match="line 1"):
            parse_fixtures(bad)

    def test_term_mismatch_detected(self):
        bad = "arm\tP18-A\tA1\tP\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,999\n"
        with pytest.raises(FixtureError, match="term 6"):
            parse_fixtures(bad)

    def test_unknown_kind(self):
        with pytest.raises(FixtureError, match="unknown record kind"):
            parse_fixtures("blob\tx\n")

    @pytest.mark.parametrize(
        "record, reason",
        [
            ("window\tP18-B\tB3\tstart\tone\t37", "invalid literal"),
            ("k5ref\tN22-K\tK5\t2\t4x9\t7^2", "invalid literal"),
            ("arm\tP18-A\tA1\tQ\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335",
             "rotation must be P or N"),
            ("arm\tP18-A\tA1\tP\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35", "needs 6 terms"),
            ("arm\tP18-A\tA1\tP\t18\t9\t3\tx\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335",
             "invalid literal"),
            ("arm\tP18-A\tA1\tP\t18\t8\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335",
             "does not match d2"),
        ],
        ids=["window-start", "k5ref-value", "rotation", "two-terms", "arm-integer", "a-vs-d2"],
    )
    def test_malformed_record_names_its_line_once(self, record, reason):
        text = "# header\n\n" + record + "\n"
        with pytest.raises(FixtureError, match=reason) as exc:
            parse_fixtures(text)
        assert exc.value.lineno == 3
        assert str(exc.value).startswith("line 3: ") and str(exc.value).count("line ") == 1

    def test_system_changing_rotation_mid_file(self):
        terms = "\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n"
        text = "arm\tP18-A\tA1\tP\t18\t9" + terms + "arm\tP18-A\tA2\tN\t18\t9" + terms
        with pytest.raises(FixtureError, match="line 2: system P18-A changes d2/rotation"):
            parse_fixtures(text)
