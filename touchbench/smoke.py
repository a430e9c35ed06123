"""Smoke run of the benchmark at tiny sizes.

    python3 touchbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
the tiny request lists, and asserts that each run exits 0, that its last
line has exactly the result keys, that every end-to-end (untraced) or
per-layer (traced) metric is emitted with the unit BENCHMARK.json gives
it, and that no output was wrong.  Then it copies only BENCHMARK.json and
the benchmark's own files into .bench_out/bare/ and asserts that a run
there fails without printing a result.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, os.path.join(root, "touchbench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, capture_output=True, text=True, cwd=root, timeout=180)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True, f"{label}: a wrong output\n{proc.stdout}"
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], f"{label}: metrics {units}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{label}: {name}"
            print(f"ok {label}: {len(units)} metrics")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "touchbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, bench["workloads"][0]["name"], 0)
    assert proc.returncode != 0, "a checkout without the package must fail"
    assert '"metrics"' not in proc.stdout, "a failed run must print no result"
    shutil.rmtree(bare)
    print("ok bare directory: exit", proc.returncode)


if __name__ == "__main__":
    main()
