"""Walk types, Dyck paths, the golden records and report rows survive pickle and copy."""

import copy
import dataclasses
import pickle

import pytest

from touchard import (
    DyckPath,
    RowCheck,
    VerificationReport,
    WalkType,
    canonicalize_type,
    golden_table3,
    table2_map,
)

ROW = RowCheck("bdd", 1, 2, 2, None, 3, "erratum")
RECORDS = [
    canonicalize_type("ea"),
    canonicalize_type("bdd"),
    DyckPath("NNSNSS"),
    DyckPath(""),
    pytest.param(golden_table3()[0], id="golden-aaa"),
    pytest.param(table2_map()[0], id="table2-aa"),
    pytest.param(ROW, id="row-bdd-1"),
]
ROUND_TRIPS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("record", RECORDS, ids=repr)
def test_round_trip_keeps_value_and_class(record, how):
    again = ROUND_TRIPS[how](record)
    assert again == record
    assert type(again) is type(record)
    assert hash(again) == hash(record)
    assert repr(again) == repr(record)


def test_round_trip_keeps_the_walk_type_usable():
    walk_type = pickle.loads(pickle.dumps(canonicalize_type("ea")))
    assert walk_type.letters == str(walk_type) == "ae"
    assert walk_type.free_direction_count == 2
    assert copy.deepcopy(DyckPath("NNSS")).heights() == [1, 2, 1, 0]


def test_asdict_of_a_golden_record():
    record = golden_table3()[0]
    fields = record._asdict()
    assert fields["walk_type"] == record.walk_type
    assert isinstance(fields["walk_type"], WalkType)
    assert fields["terms"] == record.terms
    assert record._replace(**fields) == record


def test_walk_type_survives_dataclass_asdict():
    @dataclasses.dataclass(frozen=True)
    class Holder:
        walk_type: WalkType

    fields = dataclasses.asdict(Holder(canonicalize_type("bdd")))
    assert fields == {"walk_type": canonicalize_type("bdd")}
    assert isinstance(fields["walk_type"], WalkType)


@pytest.mark.parametrize(
    "record, field",
    [(golden_table3()[0], "terms"), (table2_map()[0], "oeis_id"), (ROW, "status")],
    ids=["golden", "table2", "row"],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_reports_own_their_lists_and_compare_by_value():
    first, second = VerificationReport(), VerificationReport()
    first.rows.append(ROW)
    first.notes.append("note")
    first.warnings.append("warning")
    assert (second.rows, second.notes, second.warnings) == ([], [], [])
    assert first != second
    assert first == VerificationReport(rows=[ROW], notes=["note"], warnings=["warning"])
    assert repr(second) == "VerificationReport(rows=[], notes=[], warnings=[])"
