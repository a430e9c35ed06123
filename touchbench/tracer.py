"""Spans and counters at the boundaries between touchard's layers.

The tracer wraps the public names each layer calls into (for example the
exactmath names bound in touchard.closedforms, and the oracle and
closedforms names bound in touchard.catalog) by replacing those module
attributes for the length of one pass; the package sources stay as they
are.  Spans are kept in memory as (name, start, end, parent index) and
written out when the pass ends.  A layer's self time is its span time
minus the time covered by its child spans.

exactmath and walks are called hundreds of thousands of times per pass,
so their calls are counted and timed but keep no span of their own;
their time still counts as covered time of the enclosing span.
"""

import json
import time
import tracemalloc
from collections import Counter, defaultdict

SPAN_FREE = ("exactmath", "walks")
ORACLE_ERRORS = ("GuardExceeded", "RecursionError", "MemoryError")


class Tracer:
    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self.spans = []
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.dp_peak_bytes = 0
        self._stack = []  # [layer, span index or -1, seconds covered by children]

    def wrap(self, layer: str, fn, on_result=None, term: bool = False):
        """fn wrapped in a span of the given layer.

        Calls are counted once per outermost entry into a layer, so a
        closed form that calls another closed form is one call.
        """
        tracer = self
        name = f"{layer}:{fn.__name__}"
        memory = layer == "oracle.dp" and self.measure_memory

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if term and parent is not None and parent[0] == "closedforms":
                tracer.counts["closedforms.terms"] += 1
            span_index = -1
            if layer not in SPAN_FREE:
                span_index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [layer, span_index, 0.0]
            stack.append(frame)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if layer.startswith("oracle") and type(exc).__name__ in ORACLE_ERRORS:
                    tracer.counts["oracle.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.dp_peak_bytes = max(tracer.dp_peak_bytes, peak)
                stack.pop()
                elapsed = end - start
                tracer.self_s[layer] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if parent is None or parent[0] != layer:
                    tracer.calls[layer] += 1
                    tracer.busy[layer] += elapsed
                if span_index >= 0:
                    parent_index = next(
                        (f[1] for f in reversed(stack) if f[1] >= 0), -1
                    )
                    tracer.spans[span_index] = (name, start, end, parent_index)
            if on_result is not None:
                on_result(tracer, args, result, parent)
            return result

        traced.__name__ = fn.__name__
        return traced

    def times(self) -> tuple:
        return dict(self.busy), dict(self.self_s)

    def scale_since(self, times: tuple, factor: float) -> None:
        """Scale the busy and self time gained since times() by factor."""
        for now, then in zip((self.busy, self.self_s), times):
            for layer, seconds in now.items():
                base = then.get(layer, 0.0)
                now[layer] = base + (seconds - base) * factor

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _brute_result(tracer, args, result, parent):
    from touchard.walks import step_alphabet

    walk_type, n = args[0], args[1]
    tracer.counts["oracle.brute.candidates"] += len(step_alphabet(walk_type)) ** n
    tracer.counts["oracle.brute.walks"] += len(result)


def _catalog_result(tracer, args, result, parent):
    if parent is None or parent[0] != "catalog":
        tracer.counts["catalog.cells"] += len(result.rows)


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function that undoes it."""
    from touchard import catalog, cli, closedforms, oracle, render

    patched = []

    def patch(module, attr, layer, **options):
        original = getattr(module, attr)
        patched.append((module, attr, original))
        setattr(module, attr, tracer.wrap(layer, original, **options))

    for attr in ("binomial", "catalan", "central_binomial_any", "central_binomial_even"):
        patch(closedforms, attr, "exactmath")
    patch(closedforms, "multinomial", "exactmath", term=True)
    for attr in ("catalan", "motzkin"):
        patch(catalog, attr, "exactmath")

    closed_names = (
        "aa_closed", "ab_closed", "ace3d_count", "general_count",
        "halfplane_closed", "quadrant_axis_sum",
    )
    for attr in closed_names:
        patch(catalog, attr, "closedforms")
    patch(closedforms, "general_count", "closedforms")
    patch(cli, "general_count", "closedforms")

    # Named closed forms are handed out by catalog.named_closed_form, some
    # as functions bound when catalog was imported; wrap what it returns.
    named_closed_form = catalog.named_closed_form

    def traced_named_closed_form(walk_type):
        found = named_closed_form(walk_type)
        if found is None:
            return None
        return found[0], tracer.wrap("closedforms", found[1])

    patched.append((catalog, "named_closed_form", named_closed_form))
    catalog.named_closed_form = traced_named_closed_form

    for module in (oracle, catalog, cli):
        patch(module, "sequence_dp", "oracle.dp")
    for module in (oracle, cli):
        patch(module, "count_dp", "oracle.dp")
    patch(cli, "enumerate_walks", "oracle.brute", on_result=_brute_result)

    patch(catalog, "verify", "catalog", on_result=_catalog_result)
    patch(catalog, "verify_table3", "catalog", on_result=_catalog_result)
    patch(catalog, "golden_table3", "catalog.golden_load")

    patch(cli, "main", "cli")
    for attr in ("canonicalize_type", "parse_walk", "step_alphabet", "validate", "walk_text"):
        patch(cli, attr, "walks")
    for attr in ("dyck_to_touchard", "parse_dyck", "touchard_to_dyck"):
        patch(cli, attr, "bijections")
    for attr in ("render_dyck_ascii", "render_dyck_svg", "render_walk_ascii", "render_walk_svg"):
        patch(render, attr, "render")

    def restore():
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return restore


def layer_metrics(tracer: Tracer, memory: Tracer) -> dict:
    """Per-layer numbers of one traced pass (memory: the tracemalloc pass)."""
    calls, busy, counts = tracer.calls, tracer.busy, tracer.counts
    candidates = counts["oracle.brute.candidates"]
    return {
        "oracle.dp.calls": calls["oracle.dp"],
        "oracle.dp.busy_s": busy["oracle.dp"],
        "oracle.dp.peak_mib": memory.dp_peak_bytes / 2**20,
        "oracle.errors": counts["oracle.errors"],
        "oracle.brute.calls": calls["oracle.brute"],
        "oracle.brute.busy_s": busy["oracle.brute"],
        "oracle.brute.candidates": candidates,
        "oracle.brute.yield": counts["oracle.brute.walks"] / candidates if candidates else 0.0,
        "closedforms.calls": calls["closedforms"],
        "closedforms.self_s": tracer.self_s["closedforms"],
        "closedforms.terms": counts["closedforms.terms"],
        "closedforms.terms_per_cell": (
            counts["closedforms.terms"] / calls["closedforms"] if calls["closedforms"] else 0.0
        ),
        "exactmath.calls": calls["exactmath"],
        "exactmath.busy_s": busy["exactmath"],
        "catalog.cells": counts["catalog.cells"],
        "catalog.self_s": tracer.self_s["catalog"],
        "catalog.golden_load_s": busy["catalog.golden_load"],
        "walks.calls": calls["walks"],
        "walks.busy_s": busy["walks"],
        "bijections.calls": calls["bijections"],
        "bijections.busy_s": busy["bijections"],
        "render.calls": calls["render"],
        "render.busy_s": busy["render"],
    }
