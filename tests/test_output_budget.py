"""sequence and verify refuse, before printing, counts past the output budget.

Type e counts 2^n, of n + 1 bits, so its counts 0..N sum to
(N + 1)(N + 2) / 2 bits: 2^26 admits N = 11583 and refuses 11584.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import touchard
from touchard import cli

SRC = str(Path(touchard.__file__).resolve().parents[1])
REFUSAL = "error: the counts to print span {} bits, over the output budget of {} bits\n"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("method", ["dp", "formula"])
def test_sequence_of_e_is_admitted_to_11583_and_refused_at_11584(capsys, method):
    code, out, err = _run(capsys, "sequence", "--type", "e", "--max-n", "11583", "--method", method)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 11584
    assert lines[:4] == ["1", "2", "4", "8"]
    assert lines[-1] == str(2**11583)

    code, out, err = _run(capsys, "sequence", "--type", "e", "--max-n", "11584", "--method", method)
    assert (code, out) == (1, "")
    assert err == REFUSAL.format(11585 * 11586 // 2, 2**26)
    assert "bits of counts" not in err


@pytest.mark.parametrize("fmt", ["plain", "bfile", "json"])
def test_a_small_budget_refuses_before_any_line_prints(capsys, monkeypatch, fmt):
    bits = sum(n.bit_length() for n in touchard.sequence_dp(touchard.canonicalize_type("ae"), 20))
    monkeypatch.setattr(cli, "MAX_OUTPUT_BITS", bits - 1)
    code, out, err = _run(capsys, "sequence", "--type", "ae", "--max-n", "20", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == REFUSAL.format(bits, bits - 1)

    monkeypatch.setattr(cli, "MAX_OUTPUT_BITS", bits)
    code, out, err = _run(capsys, "sequence", "--type", "ae", "--max-n", "20", "--format", fmt)
    assert (code, err) == (0, "")
    assert out.count("\n") == 21


def test_verify_charges_every_printed_cell(capsys, monkeypatch):
    report = touchard.verify(touchard.canonicalize_type("ae"), 8)
    bits = sum(
        value.bit_length()
        for row in report.rows
        for value in (row.oracle, row.formula, row.closed, row.golden)
        if value is not None
    )
    monkeypatch.setattr(cli, "MAX_OUTPUT_BITS", bits - 1)
    code, out, err = _run(capsys, "verify", "--type", "ae", "--n-max", "8")
    assert (code, out) == (1, "")
    assert err == REFUSAL.format(bits, bits - 1)

    monkeypatch.setattr(cli, "MAX_OUTPUT_BITS", bits)
    code, out, err = _run(capsys, "verify", "--type", "ae", "--n-max", "8")
    assert (code, err) == (0, "")
    assert out == report.text() + "\n"


def test_verify_of_a_long_free_sequence_is_refused_quickly():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "touchard", "verify", "--type", "e", "--n-max", "20000"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert time.perf_counter() - start < 8
    assert (proc.returncode, proc.stdout) == (1, "")
    # Oracle, formula and the r^n closed form each print 2^n for n <= 20000.
    assert proc.stderr == REFUSAL.format(3 * 20001 * 20002 // 2, 2**26)
    assert "bits of counts" not in proc.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_refusal_leaves_the_digit_limit_as_it_was(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = _run(capsys, "sequence", "--type", "e", "--max-n", "11584")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
