import json
import re
import subprocess
import sys
import time

import pytest

from touchard import catalog, cli
from touchard.cli import main

from goldens import DEMO_DYCK, DEMO_WALK


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_default_dp(capsys):
    code, out, err = run_cli(capsys, "count", "--type", "ae", "--n", "4")
    assert (code, out, err) == (0, "42\n", "")


def test_count_methods_agree(capsys):
    for method in ("dp", "formula", "brute"):
        code, out, _ = run_cli(
            capsys, "count", "--type", "ae", "--n", "6", "--method", method
        )
        assert code == 0
        assert out == "429\n"


def test_count_rejects_bad_type(capsys):
    code, out, err = run_cli(capsys, "count", "--type", "zz", "--n", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_count_rejects_negative_n(capsys):
    code, _, err = run_cli(capsys, "count", "--type", "ae", "--n", "-2")
    assert code == 1
    assert "--n must be >= 0" in err


def test_count_brute_guard_exits_1(capsys):
    code, out, err = run_cli(
        capsys,
        "count", "--type", "ae", "--n", "30", "--method", "brute",
        "--max-brute", "1000",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "guard" in err


def test_sequence_plain(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--type", "ae", "--max-n", "5")
    assert code == 0
    assert out == "1\n2\n5\n14\n42\n132\n"


def test_sequence_nmax_alias(capsys):
    _, out_a, _ = run_cli(capsys, "sequence", "--type", "ad", "--max-n", "6")
    _, out_b, _ = run_cli(capsys, "sequence", "--type", "ad", "--n-max", "6")
    assert out_a == out_b == "1\n1\n2\n4\n9\n21\n51\n"


def test_sequence_bfile(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--type", "ae", "--max-n", "3", "--format", "bfile"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == ["0 1", "1 2", "2 5", "3 14"]
    for line in lines:
        assert re.fullmatch(r"\d+ \d+", line)


def test_sequence_json(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--type", "dd", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '{"type":"dd","n":0,"count":"1"}'
    parsed = [json.loads(line) for line in lines]
    assert [p["count"] for p in parsed] == ["1", "2", "4"]
    assert all(p["type"] == "dd" for p in parsed)


def test_enumerate_lists_walks(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--type", "ae", "--n", "2")
    assert code == 0
    assert out == "EE\nEW\nNS\nWE\nWW\n"


def test_enumerate_empty_walk(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--type", "ae", "--n", "0")
    assert (code, out) == (0, "\n")


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "--type", "ae", "NEWS")
    assert (code, out) == (0, "valid\n")


def test_validate_marks_offending_token(capsys):
    code, out, _ = run_cli(capsys, "validate", "--type", "ae", "ESNW")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid at step 1: height below 0 in dimension 0"
    assert lines[1] == "E [S] N W"


def test_validate_nonzero_final(capsys):
    code, out, _ = run_cli(capsys, "validate", "--type", "ae", "N")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid at step 1: nonzero final height in dimension 0"
    assert lines[1] == "N"


def test_validate_parse_error(capsys):
    code, out, err = run_cli(capsys, "validate", "--type", "ae", "NXS")
    assert code == 1
    assert out == ""
    assert "offset 1" in err


def test_dyck_encode_decode(capsys):
    code, out, _ = run_cli(capsys, "dyck", "encode", DEMO_WALK)
    assert (code, out) == (0, DEMO_DYCK + "\n")
    code, out, _ = run_cli(capsys, "dyck", "decode", DEMO_DYCK)
    assert (code, out) == (0, DEMO_WALK + "\n")


def test_dyck_decode_empty_is_an_error(capsys):
    code, _, err = run_cli(capsys, "dyck", "decode", "  ")
    assert code == 1
    assert "empty" in err


def test_dyck_encode_rejects_invalid_walk(capsys):
    code, _, err = run_cli(capsys, "dyck", "encode", "SN")
    assert code == 1
    assert err.startswith("error:")


def test_verify_single_type(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "ae", "--n-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("verify: 1 type(s), 7 row(s) checked, 7 agree")
    assert "ae 4 42 42 42 - agree" in lines


def test_verify_maxn_alias(capsys):
    code_a, out_a, _ = run_cli(capsys, "verify", "--type", "bd", "--n-max", "5")
    code_b, out_b, _ = run_cli(capsys, "verify", "--type", "bd", "--max-n", "5")
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize("target", [("--type", "e"), ("--table3",)])
def test_verify_refuses_a_negative_n_max_by_its_flag(capsys, target):
    code, out, err = run_cli(capsys, "verify", *target, "--n-max", "-1")
    assert (code, out, err) == (1, "", "error: --n-max must be >= 0\n")


def test_verify_needs_a_target(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 1
    assert "needs --table3 or --type" in err


def test_verify_transposed_rows_note_but_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "bdd", "--n-max", "4")
    assert code == 0
    assert "erratum" in out
    assert "NOTE bdd: printed golden digits are transposed with row bde" in out


def test_verify_table3_prefix_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--table3", "--n-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("verify: 25 type(s), 50 row(s) checked,")
    assert any(line.startswith("NOTE bdd:") for line in lines)
    assert any(line.startswith("NOTE bde:") for line in lines)
    assert any(line.startswith("NOTE ac:") for line in lines) is False


def test_verify_golden_mismatch_exits_2(capsys, monkeypatch):
    real = catalog.golden_table3()
    doctored = [
        rec._replace(terms=(1, 999))
        if rec.walk_type.letters == "aac"
        else rec
        for rec in real
    ]
    monkeypatch.setattr(catalog, "golden_table3", lambda: doctored)
    code, out, _ = run_cli(capsys, "verify", "--type", "aac", "--n-max", "1")
    assert code == 2
    assert "mismatch" in out


def test_render_ascii_stdout(capsys):
    code, out, _ = run_cli(capsys, "render", "NEWS", "--type", "ae")
    assert code == 0
    assert out == "+<--+\nv\no===.\n"


def test_render_needs_type_or_dyck(capsys):
    code, _, err = run_cli(capsys, "render", "NEWS")
    assert code == 1
    assert "needs --type or --dyck" in err


def test_render_svg_to_file_is_byte_stable(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for target in (first, second):
        code, out, _ = run_cli(
            capsys,
            "render", DEMO_WALK, "--type", "ae", "--format", "svg",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b"<svg ")


def test_render_dyck_ascii(capsys):
    code, out, _ = run_cli(capsys, "render", "NNSS", "--dyck")
    assert code == 0
    assert out == " /\\\n/  \\\n----\n"


def test_env_guard_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("WALKS_MAX_STATES", "zero")
    code, _, err = run_cli(capsys, "count", "--type", "ae", "--n", "3")
    assert code == 1
    assert "WALKS_MAX_STATES" in err
    monkeypatch.setenv("WALKS_MAX_STATES", "-5")
    code, _, err = run_cli(capsys, "count", "--type", "ae", "--n", "3")
    assert code == 1


def test_env_guard_small_limit_trips(capsys, monkeypatch):
    monkeypatch.setenv("WALKS_MAX_STATES", "2")
    code, _, err = run_cli(capsys, "count", "--type", "abc", "--n", "10")
    assert code == 1
    assert "memo states" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("error:")


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "count", "--type", "ae")
    assert code == 1
    assert "--n" in err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "touchard", "count", "--type", "ae", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "132\n"


def test_repeated_runs_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "sequence", "--type", "ace", "--max-n", "8", "--format", "json"
        )
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("count", "--method", "formula", "--type", "cccc", "--n", "100000"),
        ("count", "--method", "formula", "--type", "c", "--n", "10000000"),
        ("sequence", "--method", "formula", "--type", "e", "--max-n", "10000000"),
    ],
)
def test_formula_guard_exits_1_quickly(capsys, args):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "guard" in err


@pytest.mark.parametrize("fmt", ["plain", "bfile", "json"])
def test_sequence_formula_matches_dp_bytes(capsys, fmt):
    args = ("sequence", "--type", "ae", "--max-n", "6", "--format", fmt)
    dp = run_cli(capsys, *args)
    assert run_cli(capsys, *args, "--method", "dp") == dp
    assert run_cli(capsys, *args, "--method", "formula") == dp
    assert dp[0] == 0 and dp[1]


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_deep_failures_become_error_lines(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "count_dp", fail)
    code, out, err = run_cli(capsys, "count", "--type", "ae", "--n", "3")
    assert (code, out) == (1, "")
    assert err == f"error: {error.__name__}\n"
