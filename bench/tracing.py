"""Span tracer for the benchmark's traced run.

Wraps every public function of each infoflow module (a "layer") and
records one span per call that happens inside a timed op: layer, function,
start, end, parent span and op id. The package imports functions by name
(``from .covariance import build_covariance_set`` and the like), so a
wrapper is bound in place of the original under every name that refers to
it in every loaded ``infoflow`` module, and the originals are put back by
``uninstall``. Spans stay in memory until the run ends.

The tracer keeps one call stack, so it assumes the single-threaded calls the
workloads make (no ``jobs``).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("simulate", "panel", "covariance", "estimator", "significance", "window", "graph", "cli")

# Called once per CSV cell by write_csv; a span per call would cost more
# than the formatting it measures.
UNTRACED = {("panel", "format_float")}


def _steps(bound, result):
    spec = bound.arguments["spec"]
    return {"simulate.steps": spec.burn_in + spec.n}


def _written_bytes(bound, result):
    fh = bound.arguments["fh"]
    return {"panel.write_csv.bytes": fh.tell()}


def _read_bytes(bound, result):
    return {"panel.ingest_csv.bytes": os.path.getsize(bound.arguments["path"])}


def _surrogates(bound, result):
    singular = sum(1 for v in result if math.isinf(v))
    return {"significance.surrogates": len(result), "significance.surrogates_singular": singular}


def _windows(bound, result):
    slots = result.n_windows * len(result.pairs)
    missing = sum(est is None for series in result.flows.values() for est in series)
    return {"window.windows": result.n_windows, "window.slots": slots, "window.windows_missing": missing}


# Counts taken at the boundary of one function: (layer, name) -> counter.
# write_csv writes from the handle's current position, so tell() after the
# call is the byte count for the files the CLI opens fresh.
COUNTERS = {
    ("simulate", "euler_maruyama"): _steps,
    ("panel", "write_csv"): _written_bytes,
    ("panel", "ingest_csv"): _read_bytes,
    ("significance", "surrogate_flow_samples"): _surrogates,
    ("window", "windowed_flows"): _windows,
    ("graph", "reconstruct_graph"): lambda bound, result: {"graph.edges": len(result.edges)},
}

# Counts of calls to named functions.
CALL_COUNTS = {
    "estimator.flow_calls": {("estimator", "estimate_flow")},
    "estimator.fit_calls": {("estimator", "fit_linear_model")},
    "significance.asymptotic_calls": {("significance", "asymptotic_significance"),
                                      ("significance", "self_influence_significance")},
}

# Functions whose own duration is reported, beside their layer's self time.
TIMED_FUNCTIONS = {("panel", "write_csv"), ("panel", "ingest_csv")}


@dataclass
class Span:
    op: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    counts: dict | None


class Tracer:
    """Records spans for calls made while an op is open (``begin``/``end``)."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op_latency: dict[int, float] = {}
        self.op_factor: dict[int, float] = {}
        self.op_counts: dict[int, dict] = defaultdict(dict)
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Bind a span-recording wrapper over every public layer function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "infoflow" or name.startswith("infoflow."))]
        for layer in LAYERS:
            mod = sys.modules[f"infoflow.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or (layer, name) in UNTRACED):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                counts = None
                if counter is not None and ok:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound, result)
                tracer.spans[sid] = Span(tracer._op, parent, layer, name, start, end, counts)

        return wrapper

    def begin(self, op: int) -> None:
        self._op = op
        self._stack.clear()

    def end(self, op: int, latency: float, factor: float) -> None:
        """Close op ``op``; ``factor`` scales its times to reference speed."""
        self._op = None
        self.op_latency[op] = latency
        self.op_factor[op] = factor

    def add_counts(self, op: int, counts: dict) -> None:
        """Counts measured by the caller at a layer boundary (CLI output)."""
        for key, value in counts.items():
            self.op_counts[op][key] = self.op_counts[op].get(key, 0) + value

    def layers_seen(self) -> set[str]:
        return {s.layer for s in self.spans if s is not None}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "op": s.op, "parent": s.parent, "layer": s.layer,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")

    def table(self) -> dict[str, float]:
        """Per-op medians of layer self times (at reference speed) and counts,
        plus pooled ratios."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        per_op = {op: defaultdict(float) for op in self.op_latency}
        for sid, s in enumerate(self.spans):
            row = per_op[s.op]
            ms = 1e3 * self.op_factor[s.op]
            duration = s.end - s.start
            row[f"{s.layer}.self_ms"] += (duration - child_time[sid]) * ms
            if s.parent is None:
                row["attributed_ms"] += duration * ms
            if s.parent is None or self.spans[s.parent].layer != s.layer:
                row[f"{s.layer}.calls"] += 1
            if (s.layer, s.name) in TIMED_FUNCTIONS:
                row[f"{s.layer}.{s.name}.ms"] += duration * ms
            for key, functions in CALL_COUNTS.items():
                if (s.layer, s.name) in functions:
                    row[key] += 1
            for key, value in (s.counts or {}).items():
                row[key] += value
        for op, counts in self.op_counts.items():
            for key, value in counts.items():
                per_op[op][key] += value
        for op, latency in self.op_latency.items():
            per_op[op]["op_ms"] = latency * 1e3 * self.op_factor[op]
            per_op[op]["unattributed_ms"] = per_op[op]["op_ms"] - per_op[op]["attributed_ms"]

        def median(key):
            return statistics.median(row.get(key, 0.0) for row in per_op.values())

        def useful_ratio(attempted_key, wasted_key):
            """Pooled over ops; 1 when nothing was attempted (nothing wasted)."""
            attempted = sum(row.get(attempted_key, 0.0) for row in per_op.values())
            wasted = sum(row.get(wasted_key, 0.0) for row in per_op.values())
            return (attempted - wasted) / attempted if attempted else 1.0

        out = {f"{layer}.self_ms": median(f"{layer}.self_ms") for layer in LAYERS}
        for key in ("simulate.calls", "simulate.steps", "covariance.calls",
                    "estimator.flow_calls", "estimator.fit_calls",
                    "significance.asymptotic_calls", "significance.surrogates",
                    "significance.surrogates_singular", "window.windows",
                    "window.windows_missing", "graph.edges", "cli.output_bytes",
                    "panel.write_csv.ms", "panel.write_csv.bytes",
                    "panel.ingest_csv.ms", "panel.ingest_csv.bytes",
                    "op_ms", "unattributed_ms"):
            out[key] = median(key)
        out["significance.surrogate_useful_ratio"] = useful_ratio("significance.surrogates",
                                                                  "significance.surrogates_singular")
        out["window.useful_ratio"] = useful_ratio("window.slots", "window.windows_missing")
        return out
