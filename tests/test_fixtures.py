"""Fixture file: parsing, integrity, record counts, lookups."""

from collections import Counter

import pytest

from rootspiral.fixtures import (
    MAX_SCAN,
    FixtureError,
    FixtureLookupError,
    fixture_text,
    load_fixtures,
    parse_fixtures,
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


def test_every_record_line_is_loaded(fx):
    kinds = Counter(
        line.split("\t", 1)[0]
        for line in fixture_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    loaded = {
        "arm": sum(len(s.arms) for s in fx.systems),
        "extra": sum(len(s.arms) for s in fx.extras),
        "window": len(fx.windows),
        "k5ref": len(fx.k5_factors),
    }
    assert loaded == kinds == {"arm": 109, "extra": 2, "window": 15, "k5ref": 13}


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
        with pytest.raises(FixtureLookupError):
            fx.find_arm("Z9")
        with pytest.raises(FixtureLookupError, match="no arm 'B99' in system 'P18-B'"):
            fx.find_arm("P18-B/B99")
        with pytest.raises(FixtureLookupError, match="unknown table"):
            fx.table_systems("8")

    @pytest.mark.parametrize("name", ["P20-G-G1", "P18-B-B3"])
    def test_system_dash_arm_is_not_a_name(self, fx, name):
        with pytest.raises(FixtureLookupError, match="unknown arm"):
            fx.find_arm(name)

    def test_extra_arm(self, fx):
        _, arm = fx.find_arm("B33")
        assert str(arm.poly) == "9x^2 - 9x + 89"


class TestParseErrors:
    @pytest.mark.parametrize(
        "name, message",
        [
            ("missing.tsv", "[Errno 2] No such file or directory"),
            (".", "[Errno 21] Is a directory"),
        ],
        ids=["missing", "directory"],
    )
    def test_unreadable_file_raises_without_a_line(self, tmp_path, name, message):
        path = str(tmp_path / name)
        with pytest.raises(FixtureError) as exc:
            load_fixtures(path)
        assert exc.value.lineno is None
        assert str(exc.value) == f"{message}: {path!r}"

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
            ("window\tP18-B\tB3\tstart\t-5\t12", "start_x must be >= 1"),
            ("window\tP18-B\tB3\tstart\t0\t12", "start_x must be >= 1"),
            ("window\tP18-B\tB3\tstart\t1\t0", "length must be >= 1"),
            ("window\tP18-B\tB3\tstart\t1\t10001", "length must be <= 10000"),
            ("window\tP18-B\tB3\t2.5e5\t1\t8", "label must be one of start|2.5e6|"),
            ("window\tP18-B\tB3\tstart\t1", "needs 6 fields"),
            ("k5ref\tP18-X\tB3\t2\t49\t7^2", "k5ref names arm P18-X/B3, which is not defined"),
        ],
        ids=["window-start", "k5ref-value", "rotation", "two-terms", "arm-integer", "a-vs-d2",
             "window-negative-start", "window-zero-start", "window-zero-length",
             "window-too-long", "window-label", "window-fields", "k5ref-arm"],
    )
    def test_malformed_record_names_its_line_once(self, record, reason):
        text = "# header\n\n" + record + "\n"
        with pytest.raises(FixtureError, match=reason) as exc:
            parse_fixtures(text)
        assert exc.value.lineno == 3
        assert str(exc.value).startswith("line 3: ") and str(exc.value).count("line ") == 1

    @pytest.mark.parametrize("kind", ["arm", "extra"])
    def test_second_record_for_an_arm(self, kind):
        terms = "\tP\t18\t9\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n"
        text = "arm\tP18-A\tA1" + terms + "# comment\n" + f"{kind}\tP18-A\tA1" + terms
        with pytest.raises(FixtureError, match="line 3: arm P18-A/A1 is already defined on line 1"):
            parse_fixtures(text)

    def test_system_changing_rotation_mid_file(self):
        terms = "\t3\t-7\t21\t5\t39\t35\t57\t83\t5,35,83,149,233,335\n"
        text = "arm\tP18-A\tA1\tP\t18\t9" + terms + "arm\tP18-A\tA2\tN\t18\t9" + terms
        with pytest.raises(FixtureError, match="line 2: system P18-A changes d2/rotation"):
            parse_fixtures(text)

    @pytest.mark.parametrize("system, arm", [("P18-B", "B4"), ("P18-A", "B3"), ("N22-K", "K9")])
    def test_window_on_an_undefined_arm(self, system, arm):
        b3 = "arm\tP18-B\tB3\tP\t18\t9\t9\t-1\t27\t17\t45\t53\t63\t107\t17,53,107,179,269,377\n"
        text = b3 + f"window\t{system}\t{arm}\tstart\t1\t8\n" + "window\tP18-B\tB3\tstart\t1\t8\n"
        with pytest.raises(FixtureError, match=f"line 2: window names arm {system}/{arm}"):
            parse_fixtures(text)

    def test_window_of_the_scan_bound_is_accepted(self):
        b3 = "arm\tP18-B\tB3\tP\t18\t9\t9\t-1\t27\t17\t45\t53\t63\t107\t17,53,107,179,269,377\n"
        fx = parse_fixtures(b3 + f"window\tP18-B\tB3\tstart\t1\t{MAX_SCAN}\n")
        assert MAX_SCAN == 10_000 and fx.windows[0].length == MAX_SCAN

    def test_window_may_precede_its_arm(self):
        b3 = "arm\tP18-B\tB3\tP\t18\t9\t9\t-1\t27\t17\t45\t53\t63\t107\t17,53,107,179,269,377\n"
        fx = parse_fixtures("window\tP18-B\tB3\t2.5e6\t527\t8\n" + b3)
        assert fx.windows == (("P18-B", "B3", "2.5e6", 527, 8),)
