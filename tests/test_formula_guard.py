"""The formula guard's trip points, for every type and both entry points.

A one-factor count is charged as the one table its sequence builds, so
general_count admits it exactly as far as general_sequence.  The other
108 types keep their trip points, pinned here by one digest.
"""

import hashlib
from math import comb

import pytest

from conftest import all_type_strings
from touchard import GuardExceeded, canonicalize_type, general_count, general_sequence
from touchard import closedforms

# Largest admitted n of each one-factor type, for both entry points.
ONE_FACTOR_TRIP_POINTS = {
    **dict.fromkeys(["a", "b", "c", "d", "e", "dd"], 92680),
    **dict.fromkeys(["de", "ee", "ddd", "dde", "dddd"], 65535),
    **dict.fromkeys(["dee", "eee", "ddde", "ddee", "deee", "eeee"], 53508),
}

# SHA-256 of the lines f"{letters} {count_trip} {sequence_trip}\n" of the
# other 108 types, in all_type_strings(4) order.
OTHER_TRIP_POINTS_SHA256 = "57f45a0863189d9a9671d6581d87886d92d8cc3ebe24254d2c8f23f637b24161"


class Admitted(Exception):
    pass


def _admitted(*args):
    raise Admitted


@pytest.fixture
def no_work(monkeypatch):
    for name in ("_term", "_rolled_sum", "_factors"):
        monkeypatch.setattr(closedforms, name, _admitted)


def _admits(route, walk_type, n):
    try:
        route(walk_type, n)
    except Admitted:
        return True
    except GuardExceeded:
        return False
    raise AssertionError("the route ran past its patched engines")


def _trip_point(route, walk_type, top=10**6):
    """Largest n <= top that route admits, by bisection."""
    lo, hi = 0, top + 1
    assert _admits(route, walk_type, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _admits(route, walk_type, mid) else (lo, mid)
    return lo


def _factor_count(walk_type):
    return len(walk_type.constrained_kinds) + (walk_type.free_direction_count > 0)


def test_one_factor_pins_cover_exactly_the_one_factor_types():
    one_factor = [t for t in all_type_strings(4) if _factor_count(canonicalize_type(t)) == 1]
    assert sorted(one_factor) == sorted(ONE_FACTOR_TRIP_POINTS)
    assert len(one_factor) == 17


@pytest.mark.parametrize("letters, largest", sorted(ONE_FACTOR_TRIP_POINTS.items()))
@pytest.mark.parametrize("route", [general_count, general_sequence])
def test_one_factor_count_is_admitted_as_far_as_its_sequence(no_work, route, letters, largest):
    walk_type = canonicalize_type(letters)
    with pytest.raises(Admitted):
        route(walk_type, largest)
    with pytest.raises(GuardExceeded, match="bit operations"):
        route(walk_type, largest + 1)


def test_other_trip_points_are_unchanged(no_work):
    lines = []
    for letters in all_type_strings(4):
        walk_type = canonicalize_type(letters)
        if _factor_count(walk_type) > 1:
            count_trip = _trip_point(general_count, walk_type)
            sequence_trip = _trip_point(general_sequence, walk_type)
            lines.append(f"{letters} {count_trip} {sequence_trip}\n")
    assert len(lines) == 108
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == OTHER_TRIP_POINTS_SHA256


def test_one_meander_at_its_trip_point():
    assert general_count(canonicalize_type("c"), 92680) == comb(92680, 46340)
