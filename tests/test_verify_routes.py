"""verify fills each column of a row with one call per route.

The report text is pinned as SHA-256 digests; the deep cases, where both
the DP guard and the formula guard trip, must finish quickly and omit
the lengths no column fills; and the golden file is parsed once per
process.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import touchard
from touchard import catalog, cli, closedforms

SRC = str(Path(touchard.__file__).resolve().parents[1])

TABLE3_DIGEST = "3ea2deafe346687bb2a778d98c16bd4869222a417f7880fb9ce3347673b2e4cc"
TABLE2_DIGEST = "48caad2dbd0fae9b6a81d7d9a2987058ca2b44e6b1a3fd354fe4699b84c7d907"


def test_table3_report_digest():
    text = catalog.verify_table3().text()
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE3_DIGEST


def test_two_dimensional_reports_digest():
    digest = hashlib.sha256()
    for entry in catalog.table2_map():
        digest.update(catalog.verify(entry.walk_type, 20).text().encode() + b"\n")
    assert digest.hexdigest() == TABLE2_DIGEST


def test_one_formula_call_per_row(monkeypatch):
    calls = Counter()
    for name in ("general_count", "general_sequence"):
        def counted(*args, name=name, original=getattr(catalog, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(catalog, name, counted)
    catalog.verify_table3()
    for entry in catalog.table2_map():
        catalog.verify(entry.walk_type, 20)
    # 25 golden rows and 15 two-dimensional types; the ac NOTE alone
    # calls general_count, for n = 0..3.
    assert calls == {"general_sequence": 40, "general_count": 4}


@pytest.mark.parametrize(
    "letters, n_max, prefix",
    [("cccc", 2000, 1364), ("ace", 1500, 1364)],
)
def test_deep_rows_with_both_guards_tripped(letters, n_max, prefix):
    env = dict(os.environ, PYTHONPATH=SRC, WALKS_MAX_STATES="1000")
    result = subprocess.run(
        [sys.executable, "-m", "touchard", "verify", "--type", letters, "--n-max", str(n_max)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith(f"verify: 1 type(s), {prefix + 1} row(s) checked,")
    warnings = [line for line in lines if line.startswith("WARN ")]
    assert warnings[0].startswith(f"WARN {letters}: oracle skipped:")
    assert warnings[1].startswith(f"WARN {letters}: formula skipped from n={prefix + 1}:")
    assert warnings[2] == f"WARN {letters}: rows n={prefix + 1}..{n_max} omitted: no column fills them"


def test_rows_no_column_fills_are_omitted(capsys, monkeypatch):
    monkeypatch.setenv("WALKS_MAX_STATES", "5")
    monkeypatch.setattr(closedforms, "MAX_FORMULA_WORK", 1000)
    assert cli.main(["verify", "--type", "cc", "--n-max", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:] if line.startswith("cc ")]
    filled = len(rows)
    assert 0 < filled < 41
    assert [int(row[1]) for row in rows] == list(range(filled))
    assert all(row[3] != "-" and row[6] == "skipped(oracle-guard)" for row in rows)
    assert lines[0].startswith(f"verify: 1 type(s), {filled} row(s) checked,")
    assert lines[-2].startswith(f"WARN cc: formula skipped from n={filled}: ")
    assert lines[-1] == f"WARN cc: rows n={filled}..40 omitted: no column fills them"


def test_golden_file_is_read_once_per_process():
    script = (
        "import sys\n"
        "opened = []\n"
        "def hook(event, args):\n"
        "    if event == 'open' and str(args[0]).endswith('table3.txt'):\n"
        "        opened.append(args[0])\n"
        "sys.addaudithook(hook)\n"
        "from touchard import catalog\n"
        "for _ in range(2):\n"
        "    catalog.verify_table3(3)\n"
        "    for entry in catalog.table2_map():\n"
        "        catalog.verify(entry.walk_type, 3)\n"
        "print(len(opened))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"


def test_golden_table3_returns_equal_but_distinct_lists():
    first, second = catalog.golden_table3(), catalog.golden_table3()
    assert first == second and first is not second
    first.clear()
    assert catalog.golden_table3() == second
