"""sequence_dp as one forward sweep: count_dp's states, no recursion depth.

The sweep keeps layer j of the ids reached in j steps whose need fits
the steps left, so a completed sequence_dp(t, N) charges the guard what
count_dp(t, N) stores.  A parity-locked type (only excursions and
bridges) counts 0 at odd lengths, and at odd N its sweep stops at N - 1.
"""

import sys
from math import comb

import pytest

from conftest import all_type_strings
from touchard import GuardExceeded, ResourceLimits, canonicalize_type, count_dp, sequence_dp
from touchard import oracle

N_BY_DIMS = {1: 9, 2: 9, 3: 7, 4: 5}


def least_admitted(call) -> int:
    """The least max_dp_states under which call(limits) completes."""

    def admitted(limit: int) -> bool:
        try:
            call(ResourceLimits(max_dp_states=limit))
        except GuardExceeded:
            return False
        return True

    low, high = 0, 1
    while not admitted(high):
        low, high = high + 1, 2 * high
    while low < high:
        middle = (low + high) // 2
        if admitted(middle):
            high = middle
        else:
            low = middle + 1
    return low


def parity_locked(letters: str) -> bool:
    return all(letter in "ab" for letter in letters)


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_sequence_charges_what_count_dp_stores(letters):
    wt = canonicalize_type(letters)
    n = N_BY_DIMS[len(letters)]
    counted = n - 1 if n % 2 and parity_locked(letters) else n
    assert least_admitted(lambda limits: sequence_dp(wt, n, limits)) == least_admitted(
        lambda limits: count_dp(wt, counted, limits)
    )


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_a_sweep_interns_only_the_ids_it_reaches(monkeypatch, letters):
    wt = canonicalize_type(letters)
    tables = []
    build = oracle._state_table

    def captured(walk_type, radix):
        tables.append(build(walk_type, radix))
        return tables[-1]

    monkeypatch.setattr(oracle, "_state_table", captured)
    for n in (0, 1, 5, 8):
        tables.clear()
        sequence_dp(wt, n)
        [(moves, _, _)] = tables
        last = n - 1 if n % 2 and parity_locked(letters) else n
        # Layer j keeps the children whose need fits the last - j steps left.
        live, reached = {0}, {0}
        for j in range(1, last + 1):
            live = {cid for hid in live for _, cid, need in moves[hid] if need <= last - j}
            reached |= live
        assert len(moves) == len(reached)


def test_central_binomials_of_one_meander():
    assert sequence_dp(canonicalize_type("c"), 2000) == [comb(n, n // 2) for n in range(2001)]


def test_north_side_count_through_the_sequence_dp():
    # The paper's north-side count: ce walks of length n number C(2n + 1, n).
    assert sequence_dp(canonicalize_type("ce"), 1000) == [comb(2 * n + 1, n) for n in range(1001)]


def test_sequence_needs_no_recursion_depth():
    expected = [comb(2 * n + 2, n + 1) // (n + 2) for n in range(401)]
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        got = sequence_dp(canonicalize_type("ae"), 400)
    finally:
        sys.setrecursionlimit(previous)
    assert got == expected


# A long sequence meets the bits guard at the first length whose charged
# states (the layers swept so far) times n * bits exceed the budget.
@pytest.mark.parametrize("letters, n", [("ae", 102), ("aaa", 38), ("c", 162)])
def test_bits_guard_trips_at_the_swept_layers(monkeypatch, letters, n):
    monkeypatch.setattr(oracle, "MAX_DP_BITS", 2**20)
    with pytest.raises(GuardExceeded) as info:
        sequence_dp(canonicalize_type(letters), 5000)
    assert str(info.value) == (
        f"DP for type {letters} at n = {n} needs more than {2**20} bits of counts"
    )
