"""The DP's bound on the bits of its stored counts.

A type with free directions keeps one memo state per length, holding
counts of up to n * bits bits, so memory grows as n^2 while the state
guard sees only n states.
"""

import subprocess
import sys
import time

import pytest

from touchard import GuardExceeded, canonicalize_type, sequence_dp
from touchard import oracle


def test_bits_guard_refuses_a_long_free_sequence(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DP_BITS", 2**20)
    with pytest.raises(GuardExceeded, match="bits of counts"):
        sequence_dp(canonicalize_type("eeee"), 5000)


def test_bits_guard_admits_a_long_sequence_within_budget():
    assert sequence_dp(canonicalize_type("e"), 20000)[-1] == 2**20000


def test_cli_refuses_a_sequence_that_would_exhaust_memory():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "touchard", "sequence", "--type", "eeee", "--max-n", "200000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 30
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "bits of counts" in proc.stderr
