"""The master summation computes with each type's units, planned once for both entry points.

A unit is a factor (a constrained kind, or e^{r x} for the r free
directions) or a group of two factors (closedforms._GROUPS).  One or two
factors are their own units.  Three or four make two units, at least one
of them a group, except the ten types of three constrained kinds and one
d, whose units are a group, a kind and e^{x}.  A sequence rolls one table
per distinct unit and chains the units in units - 1 convolutions, none for
a single unit.  A count of two units is one rolled sum with no table; a
count of three builds their three tables and convolves the first two in
full, then evaluates the last product at n alone.
"""

from collections import Counter

import pytest

from conftest import all_type_strings
from touchard import canonicalize_type, general_count, general_sequence
from touchard import closedforms


@pytest.fixture
def counted(monkeypatch):
    """Lists that collect each _kind_terms unit, by its letters, and each _convolve plan length."""
    tables, plans = [], []
    kind_terms, convolve = closedforms._kind_terms, closedforms._convolve

    def counted_kind_terms(unit, n):
        named = {**closedforms._KINDS, **closedforms._GROUPS}.items()
        tables.append(next((name for name, known in named if known is unit), "e"))
        return kind_terms(unit, n)

    def counted_convolve(plan, n):
        plans.append(len(plan))
        return convolve(plan, n)

    monkeypatch.setattr(closedforms, "_kind_terms", counted_kind_terms)
    monkeypatch.setattr(closedforms, "_convolve", counted_convolve)
    return tables, plans


def _units(walk_type):
    """The type's units by letters: e stands for e^{r x}, two letters for a group."""
    kinds = "".join(kind.value for kind in walk_type.constrained_kinds)
    r = walk_type.free_direction_count
    factors = list(kinds) + ["e"] * (r > 0)
    if len(factors) < 3:
        return factors
    if len(factors) == 3:
        return [kinds[:2], factors[2]]
    if not r:
        return [kinds[:2], kinds[2:]]
    if r == 2:
        return [kinds[0] + "e", kinds[1:]]
    return [kinds[:2], kinds[2], "e"]


def test_units_of_the_125_types():
    sizes = Counter(len(_units(canonicalize_type(letters))) for letters in all_type_strings(4))
    assert sizes == {1: 17, 2: 98, 3: 10}


@pytest.mark.parametrize("letters", all_type_strings(4))
def test_one_table_per_kind_and_one_plan(counted, letters):
    tables, plans = counted
    wt = canonicalize_type(letters)
    units = _units(wt)

    general_sequence(wt, 12)
    assert Counter(tables) == Counter(set(units))
    assert plans == ([len(units) - 1] if len(units) > 1 else [])

    tables.clear()
    plans.clear()
    general_count(wt, 12)
    if len(units) == 3:
        assert sorted(tables) == sorted(units)
        assert plans == [1]
    else:
        assert tables == plans == []
