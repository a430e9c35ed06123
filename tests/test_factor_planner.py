"""The master summation rolls one table per distinct factor kind and plans one convolution list.

With multiplicities c_i of the distinct kinds, a sequence convolves
s = #{c_i > 1} squares and then chains u = sum(c_i // 2 + c_i % 2) units:
s + u - 1 convolutions in one pass, and none for a single factor.  A count
of three constrained kinds and one d runs the same list but the last,
which it evaluates at n alone.  Every other count of three or more factors
is one rolled sum over two groups, with no table and no convolution.
"""

from collections import Counter

import pytest

from conftest import all_type_strings
from touchard import DimKind, canonicalize_type, general_count, general_sequence
from touchard import closedforms


@pytest.fixture
def counted(monkeypatch):
    """Lists that collect each _kind_terms kind and each _convolve plan length."""
    tables, plans = [], []
    kind_terms, convolve = closedforms._kind_terms, closedforms._convolve

    def counted_kind_terms(kind, r, n):
        tables.append(kind)
        return kind_terms(kind, r, n)

    def counted_convolve(plan, n):
        plans.append(len(plan))
        return convolve(plan, n)

    monkeypatch.setattr(closedforms, "_kind_terms", counted_kind_terms)
    monkeypatch.setattr(closedforms, "_convolve", counted_convolve)
    return tables, plans


def _multiplicities(walk_type):
    kinds = walk_type.constrained_kinds + (DimKind.FREE,) * (walk_type.free_direction_count > 0)
    return Counter(kinds)


def _plan_length(multiplicities):
    squares = sum(c > 1 for c in multiplicities.values())
    units = sum(c // 2 + c % 2 for c in multiplicities.values())
    return squares + units - 1


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_one_table_per_kind_and_one_plan(counted, letters):
    tables, plans = counted
    wt = canonicalize_type(letters)
    multiplicities = _multiplicities(wt)
    factor_count = sum(multiplicities.values())

    general_sequence(wt, 12)
    assert Counter(tables) == Counter(set(multiplicities))
    assert plans == ([_plan_length(multiplicities)] if factor_count > 1 else [])

    if factor_count >= 3:
        tables.clear()
        plans.clear()
        general_count(wt, 12)
        if len(wt.constrained_kinds) == 3 and wt.free_direction_count == 1:
            assert Counter(tables) == Counter(set(multiplicities))
            assert plans == [_plan_length(multiplicities) - 1]
        else:
            assert tables == plans == []
