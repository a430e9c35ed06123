"""A CLI run whose reader closes the pipe early ends quietly."""

import subprocess
import sys


def _run_until_first_line(*args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "touchard", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return first, proc.returncode, stderr


def test_sequence_into_a_closed_pipe_has_no_traceback():
    # Each of the 3 001 lines has up to 904 digits, far more than a pipe holds.
    first, code, stderr = _run_until_first_line("sequence", "--type", "e", "--max-n", "3000")
    assert first == b"1\n"
    assert b"Traceback" not in stderr
    assert (code, stderr) == (1, b"")

