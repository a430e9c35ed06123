"""Benchmark of the touchard package.

    python3 touchbench/run.py --workload dp-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is loaded from src/ of that
checkout, and the run fails with exit code 2 if it is missing.  With
--trace 0 the last line of standard output is a JSON object with every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every
per-layer metric instead.  The lines before it print the same metrics by
name and unit, the failure breakdown and the provenance of the run.

The process itself never imports touchard.  It starts one child at a
time: set-up children, one worker that runs the request list (its peak
RSS is peak_rss_mib), then one child per reach-probe step.  The
workloads, metric definitions and why each workload exists are in
NOTES.md beside this file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import (
    PROBE_BUDGET_S,
    PROBE_COARSE_STRIDE,
    START_REF_S,
    WORKLOADS,
    count_fingerprint,
    probe_grid,
    request_cells,
    start_seconds,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 5
# With fewer distinct requests, ten samples above the tail would reach
# down into the bulk of a short run.
TAIL_MIN_REQUESTS = 10
RUN_TIMEOUT_S = 150
WARMUP_POLICY = (
    "one untimed set-up child before the timed set-ups; "
    "one untimed pass of the request list in the worker before the timed passes"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "seq_cells_per_s": "1/s",
    "single_cell_s": "s",
    "reach_n": "n",
    "peak_rss_mib": "MiB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "oracle.dp.calls": "count",
    "oracle.dp.busy_s": "s",
    "oracle.dp.peak_mib": "MiB",
    "oracle.errors": "count",
    "oracle.brute.calls": "count",
    "oracle.brute.busy_s": "s",
    "oracle.brute.candidates": "count",
    "oracle.brute.yield": "ratio",
    "closedforms.calls": "count",
    "closedforms.self_s": "s",
    "closedforms.terms": "count",
    "closedforms.terms_per_cell": "terms/cell",
    "exactmath.calls": "count",
    "exactmath.busy_s": "s",
    "catalog.cells": "count",
    "catalog.self_s": "s",
    "catalog.golden_load_s": "s",
    "cli.requests": "count",
    "cli.startup_ms": "ms",
    "cli.main_ms": "ms",
    "walks.calls": "count",
    "walks.busy_s": "s",
    "bijections.calls": "count",
    "bijections.busy_s": "s",
    "render.calls": "count",
    "render.busy_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not complete a run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def spawn(mode: str, params: dict, timeout: float) -> dict:
    """Run one worker child to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, WORKER, mode, json.dumps(params)],
        capture_output=True,
        env=ENV,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"worker {mode} exited with code {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def run_cli_probe(letters: str, n: int, timeout: float) -> dict:
    before = start_seconds(ENV)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "touchard", "count", "--type", letters, "--n", str(n)],
        capture_output=True,
        env=ENV,
        cwd=ROOT,
        timeout=timeout,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        for name in ("RecursionError", "MemoryError", "GuardExceeded"):
            if name.encode() in proc.stderr:
                return {"error": name}
        prefix = "guard" if proc.stderr.startswith(b"error:") else "exit"
        return {"error": f"{prefix}-{proc.returncode}"}
    seconds *= START_REF_S / ((before + start_seconds(ENV)) / 2)
    return {"seconds": seconds, "fingerprint": count_fingerprint(proc.stdout.decode().strip())}


STOP_REASONS = {"GuardExceeded": "guard", "RecursionError": "recursion", "MemoryError": "memory"}


def reach(route: str, letters: str, scale: str, pins: dict) -> dict:
    """Largest grid n whose call finishes within the budget.

    n climbs the grid in coarse strides while calls pass, then bisects
    between the last pass and the first failure.  Every step runs in its
    own child, killed at a hard cap.
    """
    budget = PROBE_BUDGET_S[scale]
    cap_s = 3 * budget + 2.0
    grid = probe_grid(letters)
    expected = pins["probe"][letters]
    steps = []

    def step(i: int) -> str:
        n = grid[i]
        try:
            if route == "cli":
                out = run_cli_probe(letters, n, cap_s)
            else:
                params = {"route": route, "letters": letters, "n": n}
                out = spawn("probe", params, cap_s)
        except subprocess.TimeoutExpired:
            outcome = "timeout"
        except BenchError:
            outcome = "crashed"
        else:
            if "error" in out:
                outcome = STOP_REASONS.get(out["error"], out["error"])
            elif out["fingerprint"] != expected[str(n)]:
                outcome = "wrong"
            else:
                outcome = "ok" if out["seconds"] <= budget else "budget"
        steps.append((n, outcome))
        return outcome

    last_pass, first_fail, reason = None, None, "grid-top"
    i = 0
    while True:
        outcome = step(i)
        if outcome != "ok":
            first_fail, reason = i, outcome
            break
        last_pass = i
        if i == len(grid) - 1:
            break
        i = min(i + PROBE_COARSE_STRIDE, len(grid) - 1)
    while last_pass is not None and first_fail is not None and first_fail - last_pass > 1:
        mid = (last_pass + first_fail) // 2
        outcome = step(mid)
        if outcome == "ok":
            last_pass = mid
        else:
            first_fail, reason = mid, outcome
    return {
        "reach_n": grid[last_pass] if last_pass is not None else 0,
        "stopped_by": reason,
        "budget_s": budget,
        "steps": steps,
        "wrong": any(outcome == "wrong" for _, outcome in steps),
    }


def tally(requests: list, passes: list) -> dict:
    """Failure counts and the time metrics of the timed passes.

    Each request's times are reduced to their median over the passes
    first, so every metric rests on per-request medians.
    """
    out = {"attempted": 0, "failed": 0, "wrong": 0, "failures": {}, "latencies": []}
    times, raw_times, ok_times, cells_of = {}, {}, {}, {}
    for records in passes:
        for index, seconds, status, cells, raw in records:
            out["attempted"] += 1
            times.setdefault(index, []).append(seconds)
            raw_times.setdefault(index, []).append(raw)
            if status != "ok":
                out["failed"] += 1
                out["wrong"] += status == "wrong"
                out["failures"][status] = out["failures"].get(status, 0) + 1
                continue
            out["latencies"].append(seconds)
            ok_times.setdefault(index, []).append(seconds)
            shape, fixed_cells = request_cells(requests[index])
            cells_of[index] = (shape, fixed_cells if fixed_cells is not None else cells)
    median = {index: statistics.median(values) for index, values in ok_times.items()}
    seq = [index for index, (shape, _) in cells_of.items() if shape == "seq"]
    singles = [median[index] for index, (shape, _) in cells_of.items() if shape == "single"]
    out["wall_s"] = sum(statistics.median(values) for values in times.values())
    out["raw_wall_s"] = sum(statistics.median(values) for values in raw_times.values())
    out["seq_cells_per_s"] = sum(cells_of[i][1] for i in seq) / sum(median[i] for i in seq)
    out["single_cell_s"] = (
        statistics.median(singles) if singles
        else sum(median.values()) / sum(cells for _, cells in cells_of.values())
    )
    out["medians"] = list(median.values())
    out["op_p50_s"] = statistics.median(out["medians"])
    return out


def tail(latencies: list, medians: list) -> tuple:
    """(value, description): the highest order statistic with ten samples
    above it, or, for a workload of a few requests of very different sizes,
    the median time of the slowest request."""
    if len(medians) < TAIL_MIN_REQUESTS:
        return max(medians), f"median of the slowest of {len(medians)} requests"
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} successful requests"


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "warmup": WARMUP_POLICY,
    }


def measure(args) -> tuple:
    """(correct, attempted, failed, metrics, report lines) of one run."""
    spec = WORKLOADS[args.workload]
    requests = spec[args.scale]
    params = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "root": ROOT,
    }
    lines = [f"provenance {json.dumps(provenance(args))}"]

    setup_times = []
    if not args.trace:
        for repeat in range(SETUP_REPEATS + 1):
            seconds = spawn("setup", params, 60)["seconds"]
            if repeat:  # the first one compiles bytecode and warms the file cache
                setup_times.append(seconds)

    out = spawn("run", params, RUN_TIMEOUT_S)
    stats = tally(requests, out["passes"])
    lines.append(f"timed passes: {len(out['passes'])}")
    checked = [record[2] for record in out["warmup"]]
    if args.trace:
        traced = [record[2] for record in out["traced"]["records"]]
        checked += traced
        stats["attempted"] += len(traced)
        for status in traced:
            if status != "ok":
                stats["failed"] += 1
                stats["failures"][status] = stats["failures"].get(status, 0) + 1
    correct = stats["wrong"] == 0 and "wrong" not in checked
    failures = ", ".join(f"{k} x{v}" for k, v in sorted(stats["failures"].items())) or "none"
    lines.append(
        f"fail_ratio {stats['failed'] / stats['attempted']} ratio "
        f"({stats['failed']} of {stats['attempted']} requests: {failures})"
    )

    if args.trace:
        metrics = out["traced"]["layers"]
        units = PER_LAYER_UNITS
    else:
        with open(os.path.join(HERE, "pins.json")) as handle:
            pins = json.load(handle)
        route, letters = spec["probe"]
        probe = reach(route, letters, args.scale, pins)
        correct = correct and not probe["wrong"]
        tail_value, tail_text = tail(stats["latencies"], stats["medians"])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": stats["wall_s"],
            "seq_cells_per_s": stats["seq_cells_per_s"],
            "single_cell_s": stats["single_cell_s"],
            "reach_n": probe["reach_n"],
            "peak_rss_mib": out["peak_rss_kib"] / 1024,
            "op_p50_ms": 1000 * stats["op_p50_s"],
            "op_tail_ms": 1000 * tail_value,
            "ok_ratio": 1 - stats["failed"] / stats["attempted"],
        }
        units = END_TO_END_UNITS
        lines.append(f"op_tail_ms is the {tail_text}")
        lines.append(f"wall_s before calibration scaling: {stats['raw_wall_s']} s")
        lines.append(
            f"reach_n probe: {route} on {letters}, {probe['budget_s']} s per call, "
            f"stopped by {probe['stopped_by']}, steps {probe['steps']}"
        )
        if not any(request_cells(r)[0] == "single" for r in requests):
            lines.append("single_cell_s: no single-n requests, median time per checked cell")
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    lines.extend(f"{name} {m['value']} {m['unit']}" for name, m in metrics.items())
    return correct, stats["attempted"], stats["failed"], metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the smoke run's request sizes (smoke.py)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "touchard", "__init__.py")):
        print(f"error: no touchard package under {SRC}", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics, lines = measure(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
