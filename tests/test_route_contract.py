"""Every counting route refuses through GuardExceeded, and the CLI checks its limits on every route.

count_dp recurses once per step, so a length past the interpreter's
recursion limit is refused as GuardExceeded with the interpreter's text,
at once and in little memory even when the length is huge.
The CLI reads --max-brute and WALKS_MAX_STATES before it picks a route,
so a bad value is refused the same way whichever route would run.  Also:
render takes --dyck or --type, never both, and touchard_to_dyck builds
its path without scanning the word again.
"""

import tracemalloc

import pytest

from touchard import GuardExceeded, bijections, canonicalize_type, cli, count_dp, parse_walk
from touchard.cli import ENV_MAX_STATES, main

from goldens import DEMO_DYCK, DEMO_WALK

RECURSION_TEXT = "maximum recursion depth exceeded"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_dp(canonicalize_type("ae"), 1500),
        lambda: count_dp(canonicalize_type("ae"), 10**7),
        lambda: count_dp(canonicalize_type("aaaa"), 10**7),
        lambda: count_dp(canonicalize_type("e"), 10**7),
    ],
    ids=["count_dp-ae-1500", "count_dp-ae-10000000", "count_dp-aaaa-10000000", "count_dp-e-10000000"],
)
def test_dp_refuses_the_recursion_limit_as_its_guard(call):
    # A memo made ahead for every length would take about 700 MiB at n = 10**7.
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded) as info:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(RECURSION_TEXT)
    assert info.value.__cause__ is None
    assert peak < 16 * 2**20


def test_cli_recursion_refusal_keeps_the_interpreter_text(capsys):
    code, out, err = run_cli(capsys, "count", "--type", "ae", "--n", "1500")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {RECURSION_TEXT}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", ["dp", "formula", "brute"])
def test_count_refuses_a_bad_max_brute_on_every_route(capsys, method):
    code, out, err = run_cli(
        capsys, "count", "--type", "ae", "--n", "5", "--method", method, "--max-brute", "0"
    )
    assert (code, out, err) == (1, "", "error: --max-brute must be a positive integer\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--type", "ae", "--n", "5", "--method", "formula"),
        ("count", "--type", "ae", "--n", "5", "--method", "brute"),
        ("sequence", "--type", "ae", "--max-n", "3", "--method", "formula"),
    ],
    ids=["count-formula", "count-brute", "sequence-formula"],
)
def test_a_bad_max_states_is_refused_as_on_the_dp_route(capsys, monkeypatch, argv):
    monkeypatch.setenv(ENV_MAX_STATES, "abc")
    dp_argv = argv[: argv.index("--method")] + ("--method", "dp")
    dp = run_cli(capsys, *dp_argv)
    assert dp == (1, "", f"error: {ENV_MAX_STATES} must be a positive integer, got 'abc'\n")
    assert run_cli(capsys, *argv) == dp


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--type", "ae", "--n", "4", "--method", "dp"),
        ("count", "--type", "ae", "--n", "4", "--method", "formula"),
        ("count", "--type", "ae", "--n", "4", "--method", "brute"),
        ("sequence", "--type", "ae", "--max-n", "4", "--method", "dp"),
        ("sequence", "--type", "ae", "--max-n", "4", "--method", "formula"),
    ],
)
def test_limits_are_resolved_once_per_request(capsys, monkeypatch, argv):
    calls = []
    resolve = cli._limits

    def counted(args):
        calls.append(args.command)
        return resolve(args)

    monkeypatch.setattr(cli, "_limits", counted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "42"
    assert calls == [argv[0]]


@pytest.mark.parametrize("type_args", [("--type", "ae"), ("--type", "zz")])
def test_render_refuses_dyck_with_type(capsys, type_args):
    code, out, err = run_cli(capsys, "render", "NS", "--dyck", *type_args)
    assert (code, out, err) == (1, "", "error: render takes --dyck or --type, not both\n")


def test_touchard_to_dyck_does_not_scan_again(monkeypatch):
    scans = []
    scan = bijections._scan

    def counted(word):
        scans.append(word)
        return scan(word)

    monkeypatch.setattr(bijections, "_scan", counted)
    path = bijections.touchard_to_dyck(parse_walk(DEMO_WALK, canonicalize_type("ae")))
    assert scans == []
    assert path == bijections.DyckPath(DEMO_DYCK)
    with pytest.raises(ValueError):
        bijections.touchard_to_dyck(parse_walk("S", canonicalize_type("ae")))
