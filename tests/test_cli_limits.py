"""Brute-force guards on huge lengths, long counts and unwritable outputs."""

import subprocess
import sys
import time

import pytest

from touchard import GuardExceeded, catalan, enumerate_dyck
from touchard.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "letters, n", [("ae", "2000000000"), ("ae", "3000"), ("d", "100000000")]
)
def test_brute_guard_refuses_huge_n_at_once(capsys, letters, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--type", letters, "--n", n, "--method", "brute")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err) < 200
    assert f"^{n} candidate" in err


def test_enumerate_dyck_guard_refuses_huge_length_at_once():
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match=r"2\^1000000000 candidate"):
        enumerate_dyck(10**9)
    assert time.perf_counter() - start < 1.0


def test_count_longer_than_the_default_digit_limit_prints():
    result = subprocess.run(
        [sys.executable, "-m", "touchard", "count", "--type", "ae", "--n", "8000",
         "--method", "formula"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    expected = catalan(8001)
    if hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert result.stdout == f"{expected}\n"
        finally:
            sys.set_int_max_str_digits(saved)
    else:
        assert result.stdout == f"{expected}\n"


def test_render_to_missing_directory_is_an_error_line(capsys, tmp_path):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run_cli(capsys, "render", "NEWS", "--type", "ae", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not target.exists()
