"""Child process of the touchard benchmark.

run.py starts one worker at a time, with src/ of the checkout on
PYTHONPATH:

    python3 worker.py setup '<json>'   set up once and report the time
    python3 worker.py run   '<json>'   warm-up pass, timed passes, traced pass
    python3 worker.py probe '<json>'   one reach-probe step

Each prints one JSON object as its last line of standard output.
Outputs are checked against pins.json outside the timed regions.
"""

import sys
import time


def setup(params: dict):
    """Import touchard, load the golden table, build inputs and expected values."""
    start = time.perf_counter()
    from touchard import catalog, walks

    catalog.golden_table3()

    import json
    import os
    import random

    from workloads import WORKLOADS, request_id

    requests = WORKLOADS[params["workload"]][params["scale"]]
    types = {
        request[1]: walks.canonicalize_type(request[1])
        for request in requests
        if request[0] != "cli" and request[1] is not None
    }
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as handle:
        pins = json.load(handle)
    expected = [pins["requests"][request_id(request)] for request in requests]
    return {
        "requests": requests,
        "types": types,
        "expected": expected,
        "rng": random.Random(params["seed"]),
        "seconds": time.perf_counter() - start,
    }


def call(ctx: dict, request):
    """Run one in-process request through the public API."""
    from touchard import catalog, closedforms, oracle

    fn, letters, n = request
    if fn == "verify_table3":
        return catalog.verify_table3(n)
    walk_type = ctx["types"][letters]
    if fn == "verify":
        return catalog.verify(walk_type, n)
    if fn == "count_dp":
        return oracle.count_dp(walk_type, n)
    if fn == "sequence_dp":
        return oracle.sequence_dp(walk_type, n)
    if fn == "general_count":
        return closedforms.general_count(walk_type, n)
    if fn == "general_count_seq":
        return [closedforms.general_count(walk_type, k) for k in range(n + 1)]
    raise ValueError(f"unknown request function {fn!r}")


def check(result, expected: str) -> tuple:
    """(status, cells) of one in-process result."""
    from workloads import count_fingerprint, report_fingerprint

    if hasattr(result, "rows"):
        return ("ok" if report_fingerprint(result.rows) == expected else "wrong"), len(result.rows)
    return ("ok" if count_fingerprint(result) == expected else "wrong"), None


def cli_status(fingerprint: str, expected: str) -> str:
    if fingerprint == expected:
        return "ok"
    if fingerprint == "timeout":
        return "error:timeout"
    if "err=traceback" in fingerprint:
        return "error:traceback"
    if "err=error-line" in fingerprint and "rc=0 " in expected:
        return "error:refused"
    return "wrong"


def run_cli(args) -> tuple:
    """(seconds, fingerprint) of one touchard subprocess."""
    import subprocess

    from workloads import cli_fingerprint

    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "touchard", *args], capture_output=True, timeout=60
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "timeout"
    seconds = time.perf_counter() - start
    return seconds, cli_fingerprint(proc.returncode, proc.stdout, proc.stderr)


def run_cli_inprocess(args) -> tuple:
    """(seconds, fingerprint) of cli.main called in this process."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from touchard import cli
    from workloads import cli_fingerprint

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            returncode = cli.main(list(args))
        except Exception:  # an uncaught error would be a traceback in a real run
            returncode = None
            print("Traceback (most recent call last)", file=err)
    seconds = time.perf_counter() - start
    return seconds, cli_fingerprint(returncode, out.getvalue().encode(), err.getvalue().encode())


def execute(ctx: dict, index: int, in_process: bool = False) -> tuple:
    """(seconds, status, cells) of one request; only the request is timed.

    in_process runs a CLI request through cli.main in this process.
    """
    request = ctx["requests"][index]
    expected = ctx["expected"][index]
    if request[0] == "cli":
        seconds, fingerprint = (run_cli_inprocess if in_process else run_cli)(request[1])
        return seconds, cli_status(fingerprint, expected), request[3]
    start = time.perf_counter()
    try:
        result = call(ctx, request)
    except Exception as exc:  # recorded as a failed request
        return time.perf_counter() - start, f"error:{type(exc).__name__}", None
    seconds = time.perf_counter() - start
    return (seconds, *check(result, expected))


def run_pass(ctx: dict, order: list) -> list:
    """[[request index, scaled seconds, status, cells, raw seconds], ...]."""
    from workloads import CAL_EVERY_S, CAL_REF_S, START_REF_S, cal_seconds, start_seconds

    cli_workload = ctx["requests"][0][0] == "cli"
    reference, reference_s = (start_seconds, START_REF_S) if cli_workload else (cal_seconds, CAL_REF_S)
    records, bracket, bracket_s = [], [], 0.0
    before = reference()
    for position, index in enumerate(order):
        seconds, status, cells = execute(ctx, index)
        bracket.append([index, seconds, status, cells, seconds])
        bracket_s += seconds
        if cli_workload or bracket_s >= CAL_EVERY_S or position == len(order) - 1:
            after = reference()
            scale = reference_s / ((before + after) / 2)
            for record in bracket:
                record[1] *= scale
            records.extend(bracket)
            bracket, bracket_s, before = [], 0.0, after
    return records


def calibrated(ctx: dict, order: list) -> dict:
    """{index: (scaled seconds, status)} of one pass of cli.main in this process."""
    from workloads import CAL_REF_S, cal_seconds

    before = cal_seconds()
    out = {index: execute(ctx, index, in_process=True)[:2] for index in order}
    scale = CAL_REF_S / ((before + cal_seconds()) / 2)
    return {index: (seconds * scale, status) for index, (seconds, status) in out.items()}


def traced_pass(ctx: dict, order: list, untraced: dict, params: dict) -> dict:
    """Per-layer metrics from one traced pass and one tracemalloc pass.

    untraced maps each request to its median scaled time over the timed passes.
    """
    import os
    import statistics

    from tracer import Tracer, install, layer_metrics
    from workloads import CAL_REF_S, cal_seconds

    cli_workload = ctx["requests"][0][0] == "cli"
    untraced_s = sum(untraced.values())
    if cli_workload:
        # cli.main in this process, after one untimed pass, gives
        # cli.main_ms, cli.startup_ms and the base of the tracing overhead.
        calibrated(ctx, order)
        plain = calibrated(ctx, order)
        untraced_s = sum(seconds for seconds, _ in plain.values())

    tracer = Tracer()
    records, dp_requests = [], []
    restore = install(tracer)
    try:
        for index in order:
            dp_calls, times = tracer.calls["oracle.dp"], tracer.times()
            before = cal_seconds()
            seconds, status, _ = execute(ctx, index, in_process=True)
            scale = CAL_REF_S / ((before + cal_seconds()) / 2)
            tracer.scale_since(times, scale)
            records.append([index, seconds * scale, status])
            if tracer.calls["oracle.dp"] > dp_calls:
                dp_requests.append(index)
    finally:
        restore()

    memory = Tracer(measure_memory=True)
    restore = install(memory)
    try:
        for index in dp_requests:
            execute(ctx, index, in_process=True)
    finally:
        restore()

    layers = layer_metrics(tracer, memory)
    layers["trace.overhead_s"] = sum(record[1] for record in records) - untraced_s
    layers["cli.requests"] = tracer.calls["cli"]
    layers["cli.main_ms"] = layers["cli.startup_ms"] = 0.0
    if cli_workload:
        layers["cli.main_ms"] = 1000 * statistics.median(s for s, _ in plain.values())
        layers["cli.startup_ms"] = 1000 * statistics.median(
            untraced[index] - plain[index][0] for index in order
        )

    out_dir = os.path.join(params["root"], ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(
        os.path.join(out_dir, f"spans-{params['workload']}-seed{params['seed']}.jsonl")
    )
    return {"layers": layers, "records": records}


def run(params: dict) -> dict:
    import resource
    import statistics

    from workloads import MIN_PASSES

    ctx = setup(params)
    requests, rng = ctx["requests"], ctx["rng"]

    def order():
        return rng.sample(range(len(requests)), len(requests))

    warmup = run_pass(ctx, order())
    passes, walls = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(walls) <= params["seconds"]
    ):
        began = time.perf_counter()
        passes.append(run_pass(ctx, order()))
        walls.append(time.perf_counter() - began)
    rusage = resource.RUSAGE_CHILDREN if ctx["requests"][0][0] == "cli" else resource.RUSAGE_SELF
    out = {
        "warmup": warmup,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(rusage).ru_maxrss,
    }
    if params["trace"]:
        times = {}
        for records in passes:
            for index, seconds, *_ in records:
                times.setdefault(index, []).append(seconds)
        untraced = {index: statistics.median(values) for index, values in times.items()}
        out["traced"] = traced_pass(ctx, order(), untraced, params)
    return out


def probe(params: dict) -> dict:
    """One reach-probe step: time one call on the probe type."""
    from touchard import catalog, closedforms, oracle, walks

    from workloads import CAL_REF_S, cal_seconds, count_fingerprint

    walk_type = walks.canonicalize_type(params["letters"])
    n = params["n"]
    route = params["route"]
    before = cal_seconds()
    start = time.perf_counter()
    try:
        if route == "count_dp":
            value = oracle.count_dp(walk_type, n)
        elif route == "general_count":
            value = closedforms.general_count(walk_type, n)
        else:
            value = catalog.verify(walk_type, n)
    except Exception as exc:  # the probe reports why it stopped
        return {"error": type(exc).__name__}
    seconds = time.perf_counter() - start
    seconds *= CAL_REF_S / ((before + cal_seconds()) / 2)
    if route == "verify":
        statuses = {row.status.split("(", 1)[0] for row in value.rows}
        value = value.rows[-1].oracle if statuses <= {"agree", "erratum"} else "mismatch"
    return {"seconds": seconds, "fingerprint": count_fingerprint(value)}


def main() -> None:
    import json

    mode, params = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        seconds = setup(params)["seconds"]
        from workloads import CAL_REF_S, cal_seconds

        out = {"seconds": seconds * CAL_REF_S / ((cal_seconds() + cal_seconds()) / 2)}
    elif mode == "run":
        out = run(params)
    elif mode == "probe":
        out = probe(params)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
