"""cli.main lifts the int-to-str digit limit for its own output only."""

import sys

import pytest

from touchard import cli

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)


@pytest.fixture
def default_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def test_main_restores_the_digit_limit(default_limit, capsys):
    assert cli.main(["count", "--type", "ae", "--n", "4"]) == 0
    assert capsys.readouterr().out == "42\n"
    assert sys.get_int_max_str_digits() == default_limit


def test_a_count_past_the_limit_still_prints(default_limit, capsys):
    assert cli.main(["count", "--type", "e", "--n", "20000", "--method", "formula"]) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == default_limit
    sys.set_int_max_str_digits(0)
    assert out == f"{2**20000}\n"
    assert len(out) == 6021 + 1


def test_a_refused_request_restores_the_limit(default_limit, capsys):
    assert cli.main(["count", "--type", "c", "--n", "92681", "--method", "formula"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sys.get_int_max_str_digits() == default_limit
