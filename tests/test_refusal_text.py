"""The formula guard's exact refusal text at the first refused n of each plan shape.

Each entry point admits n by comparing it with its plan's largest
admitted n, and only a refused n builds the message, so the text is
pinned here with n - 1 admitted beside it.  The engines are patched out,
as in tests/test_formula_guard.py, so nothing computes.
"""

import pytest

from touchard import GuardExceeded, canonicalize_type, general_count, general_sequence
from touchard import closedforms


class Admitted(Exception):
    pass


def _admitted(*args):
    raise Admitted


@pytest.fixture
def no_work(monkeypatch):
    for name in ("_term", "_rolled_sum", "_factors"):
        monkeypatch.setattr(closedforms, name, _admitted)


def _refusal(letters, n):
    return (
        f"the master summation for type {letters} up to n = {n} needs about "
        "2^32 bit operations, over the guard of 2^32"
    )


@pytest.mark.parametrize(
    "route, letters, first_refused",
    [
        (general_count, "c", 92681),
        (general_count, "ae", 46340),
        (general_count, "ce", 32768),
        (general_count, "cccc", 26754),
        (general_count, "aaad", 1365),
        (general_sequence, "cccc", 1365),
        (general_sequence, "ae", 1624),
    ],
)
def test_first_refused_n_and_its_text(no_work, route, letters, first_refused):
    walk_type = canonicalize_type(letters)
    with pytest.raises(Admitted):
        route(walk_type, first_refused - 1)
    with pytest.raises(GuardExceeded) as refused:
        route(walk_type, first_refused)
    assert str(refused.value) == _refusal(letters, first_refused)


def test_a_later_refusal_reports_its_own_n(no_work):
    with pytest.raises(GuardExceeded) as refused:
        general_sequence(canonicalize_type("ae"), 2000)
    assert str(refused.value) == _refusal("ae", 2000)


@pytest.mark.parametrize("route", [general_count, general_sequence])
def test_negative_n_is_a_value_error(no_work, route):
    with pytest.raises(ValueError, match="the master summation requires n >= 0, got -1"):
        route(canonicalize_type("ae"), -1)
