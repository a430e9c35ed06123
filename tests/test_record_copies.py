"""Walk types, Dyck paths and the golden records survive pickle and copy."""

import copy
import dataclasses
import pickle

import pytest

from touchard import DyckPath, WalkType, canonicalize_type, golden_table3

RECORDS = [canonicalize_type("ea"), canonicalize_type("bdd"), DyckPath("NNSNSS"), DyckPath("")]
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
    fields = dataclasses.asdict(record)
    assert fields["walk_type"] == record.walk_type
    assert isinstance(fields["walk_type"], WalkType)
    assert fields["terms"] == record.terms
    assert dataclasses.replace(record, **fields) == record
