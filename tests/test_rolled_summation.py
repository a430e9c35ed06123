"""The master summation for types of one or two factors, rolled term by term."""

from math import comb

import pytest

from touchard import (
    aa_closed,
    ab_closed,
    canonicalize_type,
    catalan,
    general_count,
    general_sequence,
    sequence_dp,
)
from touchard import closedforms

from conftest import all_type_strings


def _factor_count(letters):
    wt = canonicalize_type(letters)
    return len(wt.constrained_kinds) + (wt.free_direction_count > 0)


ROLLED = [letters for letters in all_type_strings(4) if _factor_count(letters) <= 2]


def test_rolled_types_are_the_fifty_of_at_most_two_factors():
    assert len(ROLLED) == 50
    assert {"a", "e", "aa", "ab", "cc", "ae", "ce", "ade", "eeee"} <= set(ROLLED)


@pytest.mark.parametrize("letters", ROLLED)
def test_rolled_count_matches_convolution_and_dp(letters):
    wt = canonicalize_type(letters)
    counts = [general_count(wt, n) for n in range(61)]
    assert counts == general_sequence(wt, 60)
    assert counts[:13] == sequence_dp(wt, 12)


def test_touchards_identity_at_4000():
    assert general_count(canonicalize_type("ae"), 4000) == catalan(4001)


def test_north_side_count_at_3001():
    assert general_count(canonicalize_type("ce"), 3001) == comb(6003, 3001)


def test_two_excursion_closed_forms_at_1000():
    assert general_count(canonicalize_type("aa"), 1000) == aa_closed(1000)
    assert general_count(canonicalize_type("ab"), 1000) == ab_closed(1000)


def test_quarter_plane_at_1001():
    n = 1001
    expected = comb(n, n // 2) * comb(n + 1, (n + 1) // 2)
    assert general_count(canonicalize_type("cc"), n) == expected


def test_one_factor_types():
    assert general_count(canonicalize_type("c"), 5001) == comb(5001, 2500)
    assert general_count(canonicalize_type("e"), 5000) == 2**5000


@pytest.mark.parametrize("letters", ["aa", "ab", "bb"])
def test_odd_lengths_of_two_returning_factors_are_zero(letters):
    wt = canonicalize_type(letters)
    assert [general_count(wt, n) for n in (1, 3, 99, 1001)] == [0, 0, 0, 0]


def test_rolled_path_builds_no_term_table(monkeypatch):
    def no_tables(*args):
        raise AssertionError("term tables built for a two-factor type")

    monkeypatch.setattr(closedforms, "_factors", no_tables)
    assert general_count(canonicalize_type("ae"), 500) == catalan(501)
