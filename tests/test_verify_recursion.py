"""verify checks every row of c to n = 2000, and skips the oracle column when the DP guard trips.

sequence_dp sweeps forward and makes no recursive call, so verify --type
c --n-max 2000 checks every row.  The same argv under a small
WALKS_MAX_STATES trips the DP's state guard, which skips the oracle
column with one WARN and exit code 0.  Also: verify takes --table3 or
--type, never both.
"""

import os
import subprocess
import sys
from pathlib import Path

import touchard
from touchard import canonicalize_type, catalog
from touchard.cli import main

SRC = str(Path(touchard.__file__).resolve().parents[1])

HEADER = "verify: 1 type(s), 2001 row(s) checked, 0 agree, 0 erratum, 0 mismatch, 2001 skipped"


def test_verify_checks_the_oracle_past_the_old_recursion_limit():
    report = catalog.verify(canonicalize_type("c"), 2000)
    assert len(report.rows) == 2001
    assert all(row.status == "agree" for row in report.rows)
    assert report.ok
    assert report.warnings == []


def test_cli_verify_past_the_recursion_limit_exits_0():
    env = dict(os.environ, PYTHONPATH=SRC, WALKS_MAX_STATES="1000")
    result = subprocess.run(
        [sys.executable, "-m", "touchard", "verify", "--type", "c", "--n-max", "2000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == HEADER
    assert sum(line.endswith(" skipped(oracle-guard)") for line in lines) == 2001
    warnings = [line for line in lines if line.startswith("WARN ")]
    assert warnings == ["WARN c: oracle skipped: DP for type c needs more than 1000 memo states"]


def test_verify_refuses_table3_with_type(capsys):
    code = main(["verify", "--table3", "--type", "ae"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: verify takes --table3 or --type, not both\n"
