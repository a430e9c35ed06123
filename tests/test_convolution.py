"""The master summation's EGF convolution against independent routes."""

import pytest
from hypothesis import given, settings, strategies as st

from touchard import (
    GuardExceeded,
    aa_closed,
    ab_closed,
    binomial,
    canonicalize_type,
    catalan,
    count_dp,
    general_count,
    general_sequence,
    halfplane_closed,
    sequence_dp,
    verify,
)
from touchard import closedforms

from conftest import all_type_strings


def test_general_count_matches_dp_all_125_types():
    types = all_type_strings(4)
    assert len(types) == 125
    for letters in types:
        wt = canonicalize_type(letters)
        assert [general_count(wt, n) for n in range(9)] == sequence_dp(wt, 8), letters


@settings(max_examples=40, deadline=None)
@given(
    st.text(alphabet="abcde", min_size=1, max_size=4),
    st.integers(0, 30),
    st.data(),
)
def test_general_sequence_entries_are_general_counts(letters, n_max, data):
    wt = canonicalize_type(letters)
    values = general_sequence(wt, n_max)
    assert len(values) == n_max + 1
    n = data.draw(st.integers(0, n_max))
    assert values[n] == general_count(wt, n)


def test_general_sequence_rejects_negative():
    with pytest.raises(ValueError):
        general_sequence(canonicalize_type("ae"), -1)


def test_deep_single_dimension_is_shifted_catalan():
    assert general_count(canonicalize_type("ae"), 4000) == catalan(4001)


def test_deep_two_dimension_closed_forms():
    assert general_count(canonicalize_type("aa"), 200) == aa_closed(200)
    assert general_count(canonicalize_type("ab"), 200) == ab_closed(200)
    assert general_count(canonicalize_type("ce"), 500) == halfplane_closed(500)


def _quarter_plane(n):
    """binomial(n, floor(n/2)) * binomial(n+1, ceil(n/2)): walks in the quarter plane."""
    return binomial(n, n // 2) * binomial(n + 1, (n + 1) // 2)


def test_quarter_plane_closed_form():
    wt = canonicalize_type("cc")
    assert [_quarter_plane(n) for n in range(40)] == sequence_dp(wt, 39)
    assert general_count(wt, 300) == _quarter_plane(300)


@pytest.mark.parametrize(
    "route, letters, n",
    [
        (general_count, "cccc", 100_000),
        (general_sequence, "cccc", 100_000),
        # One or two factors take few index pairs but O(n^2) bits of terms.
        (general_count, "c", 10**7),
        (general_count, "aa", 2_000_000),
        (general_count, "ae", 2_500_000),
        (general_sequence, "e", 10**7),
        (general_count, "e", 10**400),
    ],
)
def test_formula_guard_trips_before_work(monkeypatch, route, letters, n):
    def no_work(*args):
        raise AssertionError("term tables built before the guard")

    monkeypatch.setattr(closedforms, "_factors", no_work)
    with pytest.raises(GuardExceeded, match="bit operations"):
        route(canonicalize_type(letters), n)


def test_formula_guard_reads_module_budget(monkeypatch):
    cc = canonicalize_type("cc")
    assert general_count(cc, 20) == count_dp(cc, 20)
    monkeypatch.setattr(closedforms, "MAX_FORMULA_WORK", 1000)
    with pytest.raises(GuardExceeded):
        general_count(cc, 20)
    with pytest.raises(GuardExceeded):
        general_sequence(cc, 20)
    assert general_count(cc, 4) == count_dp(cc, 4)
    assert general_sequence(cc, 2) == sequence_dp(cc, 2)


def test_verify_reports_formula_refusal(monkeypatch):
    cc = canonicalize_type("cc")
    monkeypatch.setattr(closedforms, "MAX_FORMULA_WORK", 1000)
    report = verify(cc, 20)
    assert len(report.rows) == 21
    refused = [row.n for row in report.rows if row.formula is None]
    assert 0 < len(refused) < 21 and refused == list(range(refused[0], 21))
    assert all(row.status == "agree" for row in report.rows)
    assert [w for w in report.warnings if w.startswith(f"cc: formula skipped from n={refused[0]}:")]


def _first_refused_sequence(walk_type, n_max):
    for n in range(n_max + 1):
        try:
            general_sequence(walk_type, n)
        except GuardExceeded:
            return n
    raise AssertionError(f"no n <= {n_max} is refused")


# One type of each plan shape: one unit, a pair of units, a square of
# groups and three units, each with n_max past its threshold under the
# lowered budget.
@pytest.mark.parametrize("letters, n_max", [("c", 60), ("ae", 20), ("cccc", 15), ("aaad", 12)])
def test_verify_formula_prefix_ends_at_the_first_refused_n(monkeypatch, letters, n_max):
    wt = canonicalize_type(letters)
    # The full budget admits the whole row, so a threshold kept from it
    # would hide the refusal below.
    assert not [w for w in verify(wt, n_max).warnings if "formula skipped" in w]
    monkeypatch.setattr(closedforms, "MAX_FORMULA_WORK", 1000)
    first = _first_refused_sequence(wt, n_max)
    report = verify(wt, n_max)
    refused = [row.n for row in report.rows if row.formula is None]
    assert 0 < first and refused == list(range(first, n_max + 1))
    assert all(row.status == "agree" for row in report.rows)
    assert [w for w in report.warnings if w.startswith(f"{letters}: formula skipped from n={first}:")]
