"""The four facts each DimKind carries, and the checks validate makes with them."""

import copy
import pickle

import pytest

from touchard import DimKind, Direction, Violation, Walk, canonicalize_type, validate

# letter: (stays_nonnegative, returns_to_zero, unrestricted, direction_count)
FACTS = {
    "a": (True, True, False, 2),
    "b": (False, True, False, 2),
    "c": (True, False, False, 2),
    "d": (False, False, True, 1),
    "e": (False, False, True, 2),
}


@pytest.mark.parametrize("letter", sorted(FACTS))
def test_each_kind_carries_its_four_facts(letter):
    kind = DimKind(letter)
    facts = (kind.stays_nonnegative, kind.returns_to_zero, kind.unrestricted, kind.direction_count)
    assert facts == FACTS[letter]


def test_the_five_kinds_are_the_five_letters():
    assert [kind.value for kind in DimKind] == sorted(FACTS)


def test_lookup_by_letter_returns_the_member():
    assert DimKind("c") is DimKind.MEANDER


@pytest.mark.parametrize("kind", list(DimKind))
def test_pickle_and_deepcopy_return_the_same_member(kind):
    assert pickle.loads(pickle.dumps(kind)) is kind
    assert copy.deepcopy(kind) is kind


def test_validate_rejects_a_step_outside_the_type():
    with pytest.raises(ValueError, match="outside type ae"):
        validate(Walk((Direction(2, 1),)), canonicalize_type("ae"))


def test_validate_rejects_a_negative_one_way_step():
    with pytest.raises(ValueError, match="negative step in one-way dimension 0"):
        validate(Walk((Direction(0, -1),)), canonicalize_type("d"))


def test_validate_reports_an_earlier_violation_before_a_bad_step():
    walk = Walk((Direction(0, -1), Direction(5, 1)))
    violation = validate(walk, canonicalize_type("ae"))
    assert isinstance(violation, Violation)
    assert (violation.step_index, violation.dim) == (0, 0)
