"""The DP memo keyed on canonical heights: reflected bridges, sorted same-kind runs."""

import ast

import pytest

import touchard.oracle
from touchard import (
    GuardExceeded,
    ResourceLimits,
    canonicalize_type,
    count_dp,
    general_count,
)


@pytest.mark.parametrize(
    "letters, n", [("bbbb", 30), ("aabb", 30), ("bbcc", 24), ("abbc", 24)]
)
def test_bridge_and_repeated_kinds_match_formula_at_depth(letters, n):
    wt = canonicalize_type(letters)
    assert count_dp(wt, n) == general_count(wt, n)


# count_dp(aaaa, 20) stored 6 560 memo states when the memo keyed on raw
# heights; sorted heights of the four interchangeable excursions need 616.
AAAA_20_STATES = 1_000


def test_sorted_heights_fit_under_the_raw_state_count():
    wt = canonicalize_type("aaaa")
    limits = ResourceLimits(max_dp_states=AAAA_20_STATES)
    assert count_dp(wt, 20, limits) == general_count(wt, 20)
    with pytest.raises(GuardExceeded, match="memo states"):
        count_dp(wt, 20, ResourceLimits(max_dp_states=AAAA_20_STATES // 10))


def test_oracle_imports_no_formula_code():
    tree = ast.parse(open(touchard.oracle.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert "closedforms" not in name and "exactmath" not in name, name
