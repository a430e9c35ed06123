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


# The golden records and report rows are NamedTuples and the table is read
# through the package's loader, so neither path loads these.
RECORD_HEAVY = ("dataclasses", "inspect", "importlib.resources")


@pytest.mark.parametrize(
    "code",
    [
        "from touchard import catalog\ncatalog.golden_table3()",
        "from touchard import cli\ncli.main(['verify', '--type', 'bdd', '--n-max', '3'])",
    ],
    ids=["golden_table3", "verify"],
)
def test_golden_records_and_verify_skip_dataclasses_and_inspect(code):
    loaded = loaded_after(code)
    assert "touchard.catalog" in loaded
    assert sorted(loaded.intersection(RECORD_HEAVY)) == []


DEFERRED = ("touchard.closedforms", "touchard.exactmath", "touchard.bijections")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--type", "ae", "--n", "4"],
        ["sequence", "--type", "ae", "--max-n", "3"],
        ["enumerate", "--type", "ae", "--n", "2"],
        ["validate", "--type", "ae", "NS"],
        ["render", "NEWS", "--type", "ae"],
        ["count", "--type", "az", "--n", "4"],
    ],
)
def test_default_routes_skip_closedforms_and_bijections(argv):
    loaded = loaded_after(f"from touchard import cli\ncli.main({json.dumps(argv)})")
    assert sorted(loaded.intersection(DEFERRED)) == []


@pytest.mark.parametrize(
    "argv, module",
    [
        (["count", "--type", "ae", "--n", "4", "--method", "formula"], "touchard.closedforms"),
        (["sequence", "--type", "ae", "--max-n", "3", "--method", "formula"], "touchard.closedforms"),
        (["dyck", "encode", "NNSS"], "touchard.bijections"),
        (["dyck", "decode", "NNSS"], "touchard.bijections"),
        (["render", "NNSS", "--dyck"], "touchard.bijections"),
    ],
)
def test_deferred_modules_load_on_first_use(argv, module):
    loaded = loaded_after(f"from touchard import cli\ncli.main({json.dumps(argv)})")
    assert module in loaded


# Each deferred name of cli, its owner module, and a request that calls it.
STAND_INS = [
    ("general_count", "touchard.closedforms", ["count", "--type", "ce", "--n", "5", "--method", "formula"]),
    ("general_sequence", "touchard.closedforms", ["sequence", "--type", "ae", "--max-n", "4", "--method", "formula"]),
    ("dyck_to_touchard", "touchard.bijections", ["dyck", "decode", "NNSNSS"]),
    ("parse_dyck", "touchard.bijections", ["render", "NNSNSS", "--dyck"]),
    ("touchard_to_dyck", "touchard.bijections", ["dyck", "encode", "NEWNSS"]),
]

WRAP_AND_RESTORE = """
import contextlib, io, json, sys
import pytest
from touchard import cli

name, owner, argv = {args}


def run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


stand_in = getattr(cli, name)
facts = {{"loaded_before": owner in sys.modules, "calls": 0}}


def counted(*args, **kwargs):
    facts["calls"] += 1
    return stand_in(*args, **kwargs)


with pytest.MonkeyPatch.context() as patch:
    patch.setattr(cli, name, counted)
    facts["wrapped"] = run()
facts["restored"] = getattr(cli, name) is stand_in
facts["loaded_after"] = owner in sys.modules
facts["plain"] = run()
sys.stdout.write(json.dumps(facts))
"""


@pytest.mark.parametrize("name, owner, argv", STAND_INS)
def test_deferred_names_can_be_wrapped_and_restored(name, owner, argv):
    """The contract a tracer relies on: getattr and setattr on cli's names.

    The name exists before its module loads, cli.main calls what is bound
    there when it runs, and undoing the patch puts the original back.
    """
    script = WRAP_AND_RESTORE.format(args=repr((name, owner, argv)))
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    facts = json.loads(result.stdout)
    assert facts["loaded_before"] is False
    assert facts["calls"] == 1
    assert facts["restored"] is True
    assert facts["loaded_after"] is True
    status, output = facts["plain"]
    assert status == 0 and output.strip()
    assert facts["wrapped"] == facts["plain"]


FORMULA_MODULES = ("touchard.closedforms", "touchard.exactmath")


def test_golden_tables_load_no_formula_module():
    loaded = loaded_after(
        "from touchard import catalog\ncatalog.golden_table3()\ncatalog.table2_map()"
    )
    assert sorted(loaded.intersection(FORMULA_MODULES)) == []


def test_golden_tables_load_no_oracle_and_verify_does():
    golden = loaded_after("from touchard import catalog\ncatalog.golden_table3()")
    assert "touchard.oracle" not in golden
    verified = loaded_after(
        "from touchard import catalog, walks\n"
        "catalog.verify(walks.canonicalize_type('bdd'), 3)"
    )
    assert "touchard.oracle" in verified


def test_verify_loads_the_formula_modules():
    loaded = loaded_after(
        "from touchard import catalog, walks\n"
        "catalog.verify(walks.canonicalize_type('bdd'), 3)"
    )
    assert sorted(loaded.intersection(FORMULA_MODULES)) == list(FORMULA_MODULES)


# A deferred catalog name, a type whose verify calls it through the name,
# and how many calls verify makes for n = 0..3.
CATALOG_NAMES = [
    ("sequence_dp", "ce", 1),
    ("general_sequence", "ce", 1),
    ("general_count", "ac", 4),
    ("catalan", "ae", 4),
    ("ab_closed", "ab", 2),
    ("aa_closed", "aa", 2),
    ("quadrant_axis_sum", "ac", 4),
    ("motzkin", "ad", 4),
    ("halfplane_closed", "ce", 4),
    ("ace3d_count", "ace", 4),
]

REPLACE_BEFORE_VERIFY = """
import json, sys
from touchard import catalog, walks

name, letters = {args}
loaded = "touchard.closedforms" in sys.modules
original = getattr(catalog, name)
calls = []


def counted(*args):
    calls.append(args)
    return original(*args)


setattr(catalog, name, counted)
report = catalog.verify(walks.canonicalize_type(letters), 3)
sys.stdout.write(json.dumps([loaded, len(calls), report.counts()["mismatch"]]))
"""


@pytest.mark.parametrize("name, letters, calls", CATALOG_NAMES)
def test_a_name_replaced_before_verify_is_the_one_verify_calls(name, letters, calls):
    script = REPLACE_BEFORE_VERIFY.format(args=repr((name, letters)))
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [False, calls, 0]



BOUND_ON_FIRST_CALL = """
import contextlib, io, json, sys
from touchard import catalog, cli, closedforms, exactmath, walks


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


facts = {"cli_before": cli.general_count is closedforms.general_count}
run(["count", "--type", "ae", "--n", "4", "--method", "formula"])
facts["cli_after"] = cli.general_count is closedforms.general_count
catalog.verify(walks.canonicalize_type("ae"), 3)
facts["catalog_after"] = catalog.catalan is exactmath.catalan

calls = []
stand_ins = {"cli": cli.touchard_to_dyck, "catalog": catalog.motzkin}


def encode(walk):
    calls.append("cli")
    return stand_ins["cli"](walk)


def motzkin(n):
    calls.append("catalog")
    return stand_ins["catalog"](n)


cli.touchard_to_dyck = encode
catalog.motzkin = motzkin
run(["dyck", "encode", "NEWNSS"])
catalog.verify(walks.canonicalize_type("ad"), 3)
facts["wrappers_kept"] = [cli.touchard_to_dyck is encode, catalog.motzkin is motzkin]
facts["wrapper_calls"] = [calls.count("cli"), calls.count("catalog")]
cli.touchard_to_dyck = stand_ins["cli"]
run(["dyck", "encode", "NEWNSS"])
from touchard import bijections

facts["restored_binds"] = cli.touchard_to_dyck is bijections.touchard_to_dyck
sys.stdout.write(json.dumps(facts))
"""


def test_a_stand_in_binds_its_function_on_the_first_call_unless_wrapped():
    """The first call binds the module's own function in the stand-in's place.

    A wrapper bound with setattr before that call stays bound after it,
    and a stand-in put back in its place binds on its next call.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-S", "-c", BOUND_ON_FIRST_CALL],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "cli_before": False,
        "cli_after": True,
        "catalog_after": True,
        "wrappers_kept": [True, True],
        "wrapper_calls": [1, 4],
        "restored_binds": True,
    }


def test_a_named_closed_form_loads_its_module_when_called():
    lookup = (
        "from touchard import catalog, walks\n"
        "label, closed = catalog.named_closed_form(walks.canonicalize_type('ac'))"
    )
    assert sorted(loaded_after(lookup).intersection(FORMULA_MODULES)) == []
    called = loaded_after(f"{lookup}\nassert closed(3) == 6")
    assert sorted(called.intersection(FORMULA_MODULES)) == list(FORMULA_MODULES)
