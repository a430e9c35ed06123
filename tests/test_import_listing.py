"""A public name loads its submodule through the import statement, so -X importtime lists it."""

import os
import subprocess
import sys
from pathlib import Path

import touchard

SRC = str(Path(touchard.__file__).resolve().parents[1])


def _listed(code: str) -> dict:
    """Each module that python -X importtime lists for code, with its nesting depth."""
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    depths = {}
    for line in result.stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            name = line.rsplit("|", 1)[1][1:]
            depths[name.strip()] = (len(name) - len(name.lstrip())) // 2
    return depths


def test_a_lazy_name_lists_its_submodule_with_its_imports_nested():
    listed = _listed("import touchard; touchard.general_count")
    assert listed["touchard"] == 0
    assert listed["touchard.closedforms"] == 0
    # closedforms's own imports load beneath it, not as top-level loads.
    assert listed["touchard.exactmath"] == listed["touchard.oracle"] == 1
