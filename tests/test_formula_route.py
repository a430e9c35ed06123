"""The formula route's imports, and its guard on types with one-way dimensions."""

import ast

import pytest

import touchard.closedforms
from touchard import GuardExceeded, canonicalize_type, general_count, general_sequence
from touchard import closedforms


def test_formula_route_imports_only_guard_exceeded_from_the_oracle():
    tree = ast.parse(open(touchard.closedforms.__file__, encoding="utf-8").read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "oracle" in (node.module or ""):
            assert [alias.name for alias in node.names] == ["GuardExceeded"]
        elif isinstance(node, ast.ImportFrom):
            assert all("oracle" not in alias.name for alias in node.names), node.module
        elif isinstance(node, ast.Import):
            assert all("oracle" not in alias.name for alias in node.names)


class Admitted(Exception):
    pass


def _admitted(*args):
    raise Admitted


@pytest.fixture
def no_work(monkeypatch):
    monkeypatch.setattr(closedforms, "_rolled_sum", _admitted)
    monkeypatch.setattr(closedforms, "_factors", _admitted)


@pytest.mark.parametrize(
    "route, letters, largest",
    [
        (general_count, "ad", 46339),
        (general_count, "cd", 32767),
        (general_count, "bdde", 37835),
        (general_count, "acd", 26753),
        (general_sequence, "ad", 1623),
        (general_sequence, "acd", 1364),
    ],
)
def test_one_way_guard_trip_points(no_work, route, letters, largest):
    wt = canonicalize_type(letters)
    with pytest.raises(Admitted):
        route(wt, largest)
    with pytest.raises(GuardExceeded, match="bit operations"):
        route(wt, largest + 1)
