"""Property: no command line ends in a traceback or an undocumented exit code."""

import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from touchard.cli import ENV_MAX_STATES, main

# Mostly well-formed values, with one malformed draw in eight.
RARELY = st.sampled_from([False] * 7 + [True])


def mostly(good, bad):
    return RARELY.flatmap(lambda malformed: bad if malformed else good)


def choice(good, bad):
    return mostly(st.sampled_from(good), st.sampled_from(bad))


TYPES = mostly(
    st.text(alphabet="abcde", min_size=1, max_size=4), st.text(alphabet="abcdez", max_size=5)
)
LENGTHS = mostly(st.integers(-1, 12).map(str), st.sampled_from(["-2", "", "x", "1.5"]))
WALK_TEXT = mostly(
    st.text(alphabet="NSEW", max_size=12), st.text(alphabet="NSEWUDnsew+-3 x", max_size=12)
)
# Brute-force runs always carry a small guard, so a draw never scans 10^7 candidates.
MAX_BRUTE = choice(["1000", "100000"], ["-1", "0"])
MAX_STATES = choice([None], ["2", "0", "many"])


@st.composite
def argvs(draw):
    command = draw(
        st.sampled_from(
            ["count", "sequence", "enumerate", "validate", "dyck", "verify", "render", "frob"]
        )
    )
    argv = [command]
    if command == "count":
        argv += ["--type", draw(TYPES), "--n", draw(LENGTHS)]
        method = draw(choice([None, "dp", "formula", "brute"], ["fast"]))
        if method:
            argv += ["--method", method]
        if method == "brute":
            argv += ["--max-brute", draw(MAX_BRUTE)]
    elif command == "sequence":
        argv += ["--type", draw(TYPES), "--max-n", draw(LENGTHS)]
        argv += ["--format", draw(choice(["plain", "bfile", "json"], ["xml"]))]
        argv += ["--method", draw(choice(["dp", "formula"], ["brute"]))]
    elif command == "enumerate":
        argv += ["--type", draw(TYPES), "--n", draw(LENGTHS), "--max-brute", draw(MAX_BRUTE)]
    elif command == "validate":
        argv += ["--type", draw(TYPES), draw(WALK_TEXT)]
    elif command == "dyck":
        argv += [draw(choice(["encode", "decode"], ["flip"])), draw(WALK_TEXT)]
    elif command == "verify":
        if draw(st.booleans()):
            argv += ["--table3"]
        else:
            argv += ["--type", draw(TYPES)]
        argv += ["--n-max", draw(LENGTHS)]
    elif command == "render":
        argv += [draw(WALK_TEXT)]
        argv += draw(st.sampled_from([["--dyck"], ["--type", "ae"], ["--type", draw(TYPES)], []]))
        argv += ["--format", draw(choice(["ascii", "svg"], ["png"]))]
    # Sometimes drop or add a token, so argparse sees malformed lines too.
    if draw(RARELY) and len(argv) > 1:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(RARELY):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-n", "7"])))
    return argv


def run_in_process(argv, max_states):
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop(ENV_MAX_STATES, None)
    if max_states is not None:
        os.environ[ENV_MAX_STATES] = max_states
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop(ENV_MAX_STATES, None)
        if saved is not None:
            os.environ[ENV_MAX_STATES] = saved
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if err:
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None)
@given(argvs(), MAX_STATES)
@example(["count", "--type", "cccc", "--method", "formula", "--n", "1000000"], None)
@example(["count", "--type", "ae", "--n", "1500"], None)
@example(["count", "--type", "abc", "--n", "10"], "2")
def test_any_argv_exits_cleanly(argv, max_states):
    assert_clean_exit(*run_in_process(argv, max_states))


@pytest.mark.parametrize(
    "argv, max_states",
    [
        (["count", "--type", "cccc", "--method", "formula", "--n", "1000000"], None),
        (["count", "--type", "ae", "--n", "1500"], None),
        (["sequence", "--type", "aab", "--max-n", "12"], "2"),
    ],
)
def test_oversized_requests_fail_with_one_error_line(argv, max_states):
    env = dict(os.environ)
    env.pop(ENV_MAX_STATES, None)
    if max_states is not None:
        env[ENV_MAX_STATES] = max_states
    proc = subprocess.run(
        [sys.executable, "-m", "touchard", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert_clean_exit(proc.returncode, proc.stdout, proc.stderr)
