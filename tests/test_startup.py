"""Start-up cost: each CLI subcommand imports only the modules it runs.

Every check runs in a fresh interpreter without site packages (-S), so
the modules it finds loaded are the ones touchard imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import touchard

SRC = str(Path(touchard.__file__).resolve().parents[1])
HEAVY = (
    "touchard.catalog",
    "touchard.render",
    "dataclasses",
    "inspect",
    "json",
    "fractions",
)


def loaded_after(code: str) -> set:
    """Module names loaded after running code in a fresh interpreter."""
    script = (
        "import sys\n"
        f"{code}\n"
        "sys.stdout.write('\\n' + ' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.rsplit("\n", 1)[1].split())


def test_import_touchard_loads_no_submodule():
    loaded = loaded_after("import touchard")
    assert sorted(name for name in loaded if name.startswith("touchard.")) == []


def test_cli_import_skips_heavy_modules():
    loaded = loaded_after("from touchard import cli")
    assert sorted(loaded.intersection(HEAVY)) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--type", "ae", "--n", "4"],
        ["sequence", "--type", "ae", "--max-n", "3"],
        ["enumerate", "--type", "ae", "--n", "2"],
        ["validate", "--type", "ae", "NS"],
        ["dyck", "decode", "NNSS"],
    ],
)
def test_light_subcommands_skip_heavy_modules(argv):
    loaded = loaded_after(f"from touchard import cli\ncli.main({json.dumps(argv)})")
    assert sorted(loaded.intersection(HEAVY)) == []


@pytest.mark.parametrize(
    "argv, module",
    [
        (["verify", "--type", "bdd", "--n-max", "3"], "touchard.catalog"),
        (["render", "NEWS", "--type", "ae"], "touchard.render"),
        (["sequence", "--type", "ae", "--max-n", "3", "--format", "json"], "json"),
    ],
)
def test_subcommands_load_their_modules(argv, module):
    loaded = loaded_after(f"from touchard import cli\ncli.main({json.dumps(argv)})")
    assert module in loaded
