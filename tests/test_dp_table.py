"""The DP's private table: interned heights, moves built once, freed on return."""

import gc
import hashlib
from math import comb

import pytest

from conftest import all_type_strings
from touchard import (
    GuardExceeded,
    ResourceLimits,
    canonicalize_type,
    count_dp,
    sequence_dp,
)

# sequence_dp of all 125 types, recorded with a memo keyed on
# (k, heights) tuples, so the digest does not come from the code it checks.
SEQUENCE_DIGEST = "1e899720b3066d327856df224938ac3e192e1bf5acdc2bb5fbc2dae836f891d9"
N_MAX_BY_DIMS = {1: 10, 2: 10, 3: 8, 4: 6}

# count_dp(aa, 200) stores exactly this many memo states.
AA_200_STATES = 89_725


def test_sequences_of_all_types_match_the_recorded_digest():
    digest = hashlib.sha256()
    for letters in all_type_strings(4):
        seq = sequence_dp(canonicalize_type(letters), N_MAX_BY_DIMS[len(letters)])
        digest.update(f"{letters} {seq}\n".encode())
    assert digest.hexdigest() == SEQUENCE_DIGEST


def test_guard_trips_at_the_exact_state_count():
    wt = canonicalize_type("aa")
    assert count_dp(wt, 200, ResourceLimits(max_dp_states=AA_200_STATES)) == count_dp(wt, 200)
    with pytest.raises(GuardExceeded, match=f"more than {AA_200_STATES - 1} memo states"):
        count_dp(wt, 200, ResourceLimits(max_dp_states=AA_200_STATES - 1))


def test_recursion_spends_one_frame_per_step():
    # ae counts are Catalan numbers: catalan(n + 1) at length n.
    assert count_dp(canonicalize_type("ae"), 900) == comb(1802, 901) // 902


def _garbage_after(call) -> int:
    """Objects only the cycle collector can free, left by call()."""
    gc.collect()
    gc.disable()
    try:
        try:
            call()
        except (GuardExceeded, RecursionError):
            pass
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "letters, call",
    [
        ("aa", lambda wt: count_dp(wt, 40)),
        ("aab", lambda wt: sequence_dp(wt, 12)),
        ("abc", lambda wt: count_dp(wt, 12, ResourceLimits(max_dp_states=10))),
        ("ae", lambda wt: count_dp(wt, 1500)),
    ],
    ids=["count", "sequence", "guard", "recursion-limit"],
)
def test_memo_is_freed_without_the_cycle_collector(letters, call):
    wt = canonicalize_type(letters)
    assert _garbage_after(lambda: call(wt)) == 0
