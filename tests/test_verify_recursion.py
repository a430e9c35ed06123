"""verify skips the oracle column when the DP meets the recursion limit, as when its guard trips.

The rest of a RecursionError's message differs between Python versions,
so only its prefix is matched.  Also: verify takes --table3 or --type,
never both.
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


def test_verify_skips_the_oracle_past_the_recursion_limit():
    report = catalog.verify(canonicalize_type("c"), 2000)
    assert len(report.rows) == 2001
    assert all(row.status == "skipped(oracle-guard)" for row in report.rows)
    assert report.ok
    assert len(report.warnings) == 1
    assert report.warnings[0].startswith("c: oracle skipped: maximum recursion depth exceeded")


def test_cli_verify_past_the_recursion_limit_exits_0():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-m", "touchard", "verify", "--type", "c", "--n-max", "2000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == HEADER
    warnings = [line for line in lines if line.startswith("WARN ")]
    assert len(warnings) == 1
    assert warnings[0].startswith("WARN c: oracle skipped: maximum recursion depth exceeded")


def test_verify_refuses_table3_with_type(capsys):
    code = main(["verify", "--table3", "--type", "ae"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: verify takes --table3 or --type, not both\n"
