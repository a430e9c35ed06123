"""The formula guard charges a count of two units for its rolled terms.

Two factors are two units, and a count of three or four factors whose
units are two groups, or a group and a kind, is one rolled sum too, so
cccc and aaaa are charged as the rolled sums they run.
"""

from math import comb

import pytest

from touchard import GuardExceeded, canonicalize_type, catalan, general_count
from touchard import closedforms


def test_touchards_identity_at_20000():
    assert general_count(canonicalize_type("ae"), 20000) == catalan(20001)


def test_north_side_count_at_20000():
    assert general_count(canonicalize_type("ce"), 20000) == comb(40001, 20000)


@pytest.mark.parametrize(
    "letters, largest",
    [
        ("ae", 46339), ("aa", 46339), ("ab", 46339), ("ce", 32767), ("cc", 32767),
        ("cccc", 26753), ("aaaa", 37835),
    ],
)
def test_rolled_guard_trip_points(monkeypatch, letters, largest):
    monkeypatch.setattr(closedforms, "_rolled_sum", lambda *args: "admitted")
    wt = canonicalize_type(letters)
    assert general_count(wt, largest) == "admitted"
    with pytest.raises(GuardExceeded, match="bit operations"):
        general_count(wt, largest + 1)
