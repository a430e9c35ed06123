"""The formula guard charges a two-factor count for its rolled terms, and a convolution as before.

A count of two groups is one rolled sum too, but it is still charged as
the convolution it replaces.
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
    [("ae", 46339), ("aa", 46339), ("ab", 46339), ("ce", 32767), ("cc", 32767)],
)
def test_rolled_guard_trip_points(monkeypatch, letters, largest):
    monkeypatch.setattr(closedforms, "_rolled_sum", lambda *args: "admitted")
    wt = canonicalize_type(letters)
    assert general_count(wt, largest) == "admitted"
    with pytest.raises(GuardExceeded, match="bit operations"):
        general_count(wt, largest + 1)


def test_convolution_guard_still_stops_cccc_after_1124(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(closedforms, "_factors", admitted)
    monkeypatch.setattr(closedforms, "_rolled_sum", admitted)
    cccc = canonicalize_type("cccc")
    with pytest.raises(Admitted):
        general_count(cccc, 1124)
    with pytest.raises(GuardExceeded, match="bit operations"):
        general_count(cccc, 1125)
