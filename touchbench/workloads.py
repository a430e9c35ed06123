"""Workload definitions shared by the benchmark's parent, worker and pin script.

A workload is a fixed list of requests.  A request is a tuple
(function, type letters, n) for the in-process workloads, or
("cli", arguments, shape, cells) for cli-small.  The request id (``request_id``) keys the
pinned fingerprint in pins.json.  Nothing here imports touchard, so the
parent process never loads the package it measures.

Why each workload exists is in NOTES.md beside this file.
"""

import hashlib
import subprocess
import sys
import time

# The 15 two-dimensional types listed by catalog.table2_map().
TABLE2_TYPES = (
    "aa", "ab", "ac", "ad", "ae", "bb", "bc", "bd", "be",
    "cc", "cd", "ce", "dd", "de", "ee",
)

# (arguments, shape, cells): shape is "single" for a one-cell count,
# "seq" for a request that reports cells 0..n, "other" otherwise.
_CLI_REQUESTS = (
    (("count", "--type", "ae", "--n", "4"), "single", 1),
    (("sequence", "--type", "ae", "--max-n", "6", "--format", "bfile"), "seq", 7),
    (("sequence", "--type", "ae", "--max-n", "6", "--format", "json"), "seq", 7),
    *((("enumerate", "--type", "ae", "--n", str(n)), "other", 0) for n in range(2, 9)),
    (("validate", "--type", "ae", "NEWS"), "other", 0),
    (("validate", "--type", "ae", "ESNW"), "other", 0),
    (("dyck", "encode", "NEWS"), "other", 0),
    (("dyck", "decode", "NNNNSSNSSS"), "other", 0),
    (("render", "NEWS", "--type", "ae"), "other", 0),
    (("render", "NEWS", "--type", "ae", "--format", "svg"), "other", 0),
    (("render", "NNNNSSNSSS", "--dyck"), "other", 0),
    (("render", "NNNNSSNSSS", "--dyck", "--format", "svg"), "other", 0),
    (("verify", "--type", "bdd", "--n-max", "3"), "seq", 4),
    (("count", "--type", "az", "--n", "3"), "other", 0),
    (("count", "--type", "ae", "--n", "1500"), "single", 1),
)

# full, tiny: the fixed request list of one pass, at the measured size
#   and at the size of the smoke run (smoke.py).
# probe: (route, probe type) for reach_n.
WORKLOADS = {
    "verify-golden": {
        "full": [("verify_table3", None, None)]
        + [("verify", letters, 20) for letters in TABLE2_TYPES],
        "tiny": [("verify_table3", None, 3)]
        + [("verify", letters, 3) for letters in TABLE2_TYPES],
        "probe": ("verify", "aaa"),
    },
    "dp-deep": {
        "full": [
            ("count_dp", "aa", 200),
            ("sequence_dp", "aaa", 60),
            ("sequence_dp", "aaaa", 30),
            ("count_dp", "ae", 1500),
        ],
        "tiny": [
            ("count_dp", "aa", 20),
            ("sequence_dp", "aaa", 8),
            ("sequence_dp", "aaaa", 6),
            ("count_dp", "ae", 1500),
        ],
        "probe": ("count_dp", "aaa"),
    },
    "formula-deep": {
        "full": [
            ("general_count", "cccc", 60),
            ("general_count", "ccc", 150),
            ("general_count", "ae", 4000),
            ("general_count_seq", "aa", 200),
            ("general_count_seq", "ae", 500),
        ],
        "tiny": [
            ("general_count", "cccc", 8),
            ("general_count", "ccc", 12),
            ("general_count", "ae", 100),
            ("general_count_seq", "aa", 20),
            ("general_count_seq", "ae", 30),
        ],
        "probe": ("general_count", "cccc"),
    },
    "cli-small": {
        "full": [("cli", *request) for request in _CLI_REQUESTS],
        "tiny": [("cli", *request) for request in _CLI_REQUESTS],
        "probe": ("cli", "aaa"),
    },
}

# A run measures timed passes until the next one would end after
# --seconds, and at least MIN_PASSES of them.
MIN_PASSES = 2

# Requests that compute one (type, n) cell; everything else that reports
# cells is a sequence request.
SINGLE_FUNCTIONS = ("count_dp", "general_count")

# Reach probe: n runs over a geometric grid whose steps are 4 % from
# n = 25 on, where every probe route reaches at the parent commit, so a
# reach that moves by one grid point moves by well under a tenth.  Counts
# above the cap are not pinned; a probe that passes the cap stops there.
PROBE_BUDGET_S = {"full": 0.25, "tiny": 0.15}
PROBE_COARSE_STRIDE = 8
PROBE_CAPS = {"aaa": 160, "cccc": 600}


# Calibration.  On a shared 2-core KVM guest the CPU speed drifts by up
# to 2x within seconds, as other tenants of the host come and go, and no
# median over one run removes that.  So every timed region is bracketed
# by a reference: a fixed pure-Python loop for in-process work, a bare
# interpreter start for subprocess work.  Each time is reported scaled to
# the speed at which the reference takes CAL_REF_S or START_REF_S, so the
# figures are seconds at that reference speed.  At a steady speed the
# scaling cancels out of every comparison between two commits.
CAL_REF_S = 0.011
START_REF_S = 0.045
CAL_EVERY_S = 0.1  # in-process requests share one bracket up to this long


def _reference_loop() -> int:
    table = {}
    x = 1
    for i in range(20000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        x = x * 3 % 1000003
    return x


def cal_seconds() -> float:
    """Time of the in-process reference: two runs of a fixed loop of
    dict and small-integer work."""
    start = time.perf_counter()
    _reference_loop()
    _reference_loop()
    return time.perf_counter() - start


def start_seconds(env: dict | None = None) -> float:
    """Time of one bare interpreter start, the subprocess reference."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=env, timeout=60)
    return time.perf_counter() - start


def probe_grid(letters: str) -> list:
    cap = PROBE_CAPS[letters]
    grid = set()
    k = 0
    while True:
        n = round(4 * 1.04**k)
        if n > cap:
            return sorted(grid)
        grid.add(n)
        k += 1


def request_id(request) -> str:
    if request[0] == "cli":
        return "cli " + " ".join(request[1])
    return " ".join(str(part) for part in request if part is not None)


def request_cells(request) -> tuple:
    """(shape, cells); cells None stands for the report's row count."""
    if request[0] == "cli":
        return request[2], request[3]
    fn, _, n = request
    if fn in SINGLE_FUNCTIONS:
        return "single", 1
    if fn == "verify_table3":
        return "seq", None
    return "seq", n + 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def count_fingerprint(value) -> str:
    """Fingerprint of one count or of a list of counts, by decimal string."""
    if isinstance(value, list):
        return digest(",".join(str(v) for v in value))
    return digest(str(value))


def report_fingerprint(rows) -> str:
    """Tallies plus a digest of every verified cell of a verify report."""
    tallies = {"agree": 0, "erratum": 0, "mismatch": 0, "skipped": 0}
    lines = []
    for row in rows:
        tallies[row.status.split("(", 1)[0]] += 1
        lines.append(
            f"{row.type_letters} {row.n} {row.oracle} {row.formula} "
            f"{row.closed} {row.golden} {row.status}"
        )
    counts = " ".join(f"{key}={value}" for key, value in tallies.items())
    return f"{counts} rows={digest(chr(10).join(lines))}"


def cli_fingerprint(returncode: int, stdout: bytes, stderr: bytes) -> str:
    if b"Traceback (most recent call last)" in stderr:
        err = "traceback"
    elif stderr.startswith(b"error:"):
        err = "error-line"
    else:
        err = "other" if stderr else "empty"
    return f"rc={returncode} out={hashlib.sha256(stdout).hexdigest()} err={err}"
