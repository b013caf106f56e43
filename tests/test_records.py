"""Record contract: every public record is an immutable, hashable, picklable NamedTuple.

repr and hash are those a frozen dataclass gives: ``Name(field=value, ...)``
and the hash of the tuple of the fields.  Report is the one mutable record.
"""

import importlib
import pickle

import pytest

from rootspiral import factorlab, numberspiral, quad, spiral
from rootspiral.fixtures import load_fixtures
from rootspiral.report import Check, Report

MODULES = ("factorlab", "fixtures", "numberspiral", "quad", "report", "residues", "spiral")


def _samples():
    fx = load_fixtures()
    system, b3 = fx.find_arm("B3")
    poly = b3.poly
    chain = factorlab.detect_arm_chain(17, 18, 6)
    density = factorlab.density_scan(poly, 1, 4)
    return [
        quad.QuadPoly(9, 9, -1),
        b3,
        system,
        factorlab.factorize(2500550027),
        factorlab.root_classes(poly, 7),
        factorlab.admissible_primes(poly, 61),
        factorlab.same_splitting(poly, quad.QuadPoly(1, 0, 1), 10),
        density.records[0],
        density,
        chain.candidates[0],
        chain,
        fx.windows[0],
        fx.k5_factors[0],
        fx,
        numberspiral.ulam_coord(10),
        Check("plot", True, "wrote x.svg"),
        spiral.polar_of(17),
    ]


SAMPLES = _samples()


def test_every_public_record_type_has_a_sample():
    records = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"rootspiral.{name}")).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        and obj.__module__ == f"rootspiral.{name}" and not obj.__name__.startswith("_")
    }
    assert len(records) == 17
    assert {type(s) for s in SAMPLES} == records


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestRecordContract:
    def test_fields_are_read_only(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_hash_is_the_hash_of_the_fields(self, record):
        assert hash(record) == hash(tuple(getattr(record, name) for name in record._fields))

    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


def test_repr_examples():
    assert repr(quad.QuadPoly(9, 9, -1)) == "QuadPoly(a=9, b=9, c=-1)"
    assert repr(quad.ArmSystem("X", 18, "P")) == "ArmSystem(name='X', d2=18, rotation='P', arms=())"
    assert repr(factorlab.factorize(2500550027)) == (
        "Factorization(factors=((29, 1), (2731, 1), (31573, 1)))"
    )
    assert repr(Check("plot", True)) == (
        "Check(name='plot', passed=True, detail='', value=None, expected=None)"
    )


def test_records_equal_the_tuple_of_their_fields():
    assert quad.QuadPoly(9, 9, -1) == (9, 9, -1)
    a, b, c = quad.QuadPoly(9, 9, -1)
    assert (a, b, c) == (9, 9, -1)


def test_new_reports_share_no_mutable_default():
    first, second = Report("a"), Report("b")
    first.add("x", True)
    first.inputs["k"] = 1
    first.data["d"] = 2
    assert (second.inputs, second.checks, second.data) == ({}, [], {})
    assert first.inputs is not second.inputs
    assert first.checks is not second.checks
    assert first.data is not second.data


def test_report_keeps_the_objects_it_is_given():
    inputs = {"k": 1}
    report = Report("r", inputs=inputs)
    assert report.command == "r"
    assert report.inputs is inputs and (report.checks, report.data) == ([], {})
