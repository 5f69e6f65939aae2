"""Command-line front end.

Subcommands: estimate, matrix, graph, window, simulate. Exit codes:
0 success, 2 usage error, 3 data/validation error, 4 numerical error.
All randomness is seeded; without --seed a generated seed is printed to
stderr so any run can be reproduced, and --strict-repro makes an explicit
seed mandatory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analytic import load_system, stationary_covariance
from .errors import (
    DataError,
    DegenerateNormalizerError,
    InfoflowError,
    NumericalError,
    UsageError,
)
from .estimator import estimate_flow_matrix
from .graph import CORRECTIONS, export_graph, reconstruct_graph
from .panel import TimeSeriesPanel, ingest_csv, write_csv
from .significance import SERIAL_CORRELATION_LIMIT
from .simulate import BENCHMARK_NAMES, DEFAULT_BURN_IN, RNG_ALGORITHM, benchmark, simulate_system
from .window import windowed_flows

ESTIMATE_SCHEMA = "infoflow-estimate/1"
MATRIX_SCHEMA = "infoflow-matrix/1"
WINDOW_SCHEMA = "infoflow-window/1"
SIM_META_SCHEMA = "infoflow-sim-meta/1"


# Options shared by several subcommands; each registers only those it reads.
FLAGS = {
    "--k": dict(type=int, default=1, help="differencing stride (default 1)"),
    "--dt": dict(type=float, default=None, help="time step for files without a time column"),
    "--json": dict(action="store_true", help="emit a JSON report instead of text"),
    "--seed": dict(type=int, default=None, help="seed for randomized operations"),
    "--surrogates": dict(type=int, default=0, help="surrogate count for nonparametric p values (>= 19)"),
    "--normalize": dict(action="store_true", help="also report relative-importance normalization"),
    "--per-step": dict(action="store_true", help="report flows per sample step instead of per unit time"),
    "--strict-repro": dict(action="store_true", help="refuse randomized runs without an explicit --seed"),
}

ESTIMATION_FLAGS = ("--k", "--dt", "--seed", "--surrogates", "--strict-repro")


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **FLAGS[name])


def _ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delimiter", default=",", help="CSV field delimiter (default ,)")
    parser.add_argument("--no-header", action="store_true", help="file has no header row; labels become c0, c1, ...")
    time = parser.add_mutually_exclusive_group()
    time.add_argument("--time-column", default=None, help="name of the time column (default: auto-detect 't'/'time')")
    time.add_argument("--no-time-column", action="store_true", help="treat every column as data even if one looks like time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="Directed information-flow analysis for multivariate time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("estimate", help="flow rate for one ordered pair")
    p.add_argument("csv", help="input CSV file")
    p.add_argument("--source", required=True, help="source series (label or 1-based index)")
    p.add_argument("--target", required=True, help="target series (label or 1-based index)")
    _ingest_flags(p)
    _flags(p, *ESTIMATION_FLAGS, "--json", "--normalize", "--per-step")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("matrix", help="all pairwise flows plus self influences")
    p.add_argument("csv", help="input CSV file")
    _ingest_flags(p)
    _flags(p, *ESTIMATION_FLAGS, "--json", "--normalize", "--per-step")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("graph", help="significance-filtered causal graph (DOT or JSON)")
    p.add_argument("csv", help="input CSV file")
    p.add_argument("--format", choices=("dot", "json"), default="dot", help="output format (default dot)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    p.add_argument(
        "--correction",
        choices=CORRECTIONS,
        default="none",
        help="multiple-testing correction over directed pairs (default none)",
    )
    _ingest_flags(p)
    _flags(p, *ESTIMATION_FLAGS)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("window", help="running-window flow analysis")
    p.add_argument("csv", help="input CSV file")
    p.add_argument("--window", type=int, required=True, help="window length in samples")
    p.add_argument("--step", type=int, default=None, help="window step in samples (default: window length)")
    p.add_argument("--source", default=None, help="source series for a single pair")
    p.add_argument("--target", default=None, help="target series for a single pair")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    _ingest_flags(p)
    _flags(p, *ESTIMATION_FLAGS, "--json", "--per-step")
    p.set_defaults(func=cmd_window)

    p = sub.add_parser("simulate", help="generate benchmark or user-defined linear SDE data")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--benchmark", choices=BENCHMARK_NAMES, help="named generator with planted structure")
    group.add_argument("--system", help="JSON file with fields f, A, B")
    p.add_argument("--n", type=int, required=True, help="number of samples to keep")
    p.add_argument("--burn-in", type=int, default=None, help=f"discarded initial steps (default {DEFAULT_BURN_IN})")
    p.add_argument("--coupling", type=float, default=None, help="benchmark coupling strength (--benchmark only)")
    p.add_argument("--noise", type=float, default=None, help="benchmark noise amplitude (--benchmark only)")
    p.add_argument("--d", type=int, default=None, help="dimension for independent_d (--benchmark only)")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.add_argument("--meta", default=None, help="metadata JSON path (default: <output stem>.meta.json)")
    p.add_argument("--dt", type=float, default=None, help="integration time step (default 0.01)")
    _flags(p, "--seed", "--strict-repro")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call and shared by every later
    ``main`` of the process: parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"infoflow: error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"infoflow: data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"infoflow: numerical error: {exc}", file=sys.stderr)
        return 4
    except InfoflowError as exc:
        print(f"infoflow: error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"infoflow: data error: {exc}", file=sys.stderr)
        return 3


def _require_dt(dt: float | None) -> None:
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"--dt must be a finite positive number, got {dt}")


def _load_panel(args) -> TimeSeriesPanel:
    _require_dt(args.dt)
    return ingest_csv(
        args.csv,
        delimiter=args.delimiter,
        has_header=not args.no_header,
        time_column=False if args.no_time_column else args.time_column,
        dt_override=args.dt,
    )


def _resolve_series(panel: TimeSeriesPanel, token: str) -> int:
    if token in panel.labels:
        return panel.labels.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise UsageError(
            f"unknown series {token!r}; available: {', '.join(panel.labels)}"
        ) from None
    if not 1 <= idx <= panel.d:
        raise UsageError(f"series index {idx} out of range 1..{panel.d}")
    return idx - 1


def _effective_seed(args) -> int:
    """Explicit seed, or a generated one announced on stderr."""
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    if args.strict_repro:
        raise UsageError("--strict-repro requires an explicit --seed for randomized runs")
    seed = int.from_bytes(os.urandom(8), "little") >> 1
    print(f"infoflow: generated seed: {seed}", file=sys.stderr)
    return seed


def _surrogate_plan(args) -> dict:
    """Surrogate keywords of ``estimate_flow_matrix`` and ``windowed_flows``; the
    seed is resolved (or generated and announced) only when surrogates are drawn."""
    return {
        "surrogates": args.surrogates,
        "seed": _effective_seed(args) if args.surrogates else None,
    }


def _per_step(args, dt: float) -> tuple[float, str]:
    """Scale and units of reported flows: per unit time, or per step with --per-step."""
    return (dt, "nats/step") if args.per_step else (1.0, "nats/time")


def _json_float(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _flow_fields(report, at, scale: float, z: bool = False) -> list[dict]:
    """The JSON fields shared by the estimate, matrix and window reports, of
    each flow that the index ``at`` selects from the arrays of a
    ``FlowMatrix`` or a ``WindowedFlowSeries``."""
    p_surrogate = np.full(report.value.shape, np.nan) if report.p_surrogate is None else report.p_surrogate
    columns = {"flow": report.value[at] * scale, "stderr": report.stderr[at] * scale, "z": report.z[at],
               "p_asymptotic": report.p_asymptotic[at], "p_surrogate": p_surrogate[at]}
    if not z:
        del columns["z"]
    rows = zip(*([_json_float(x) for x in a.tolist()] for a in columns.values()))
    return [dict(zip(columns, row)) for row in rows]


def _fmt(x, width: int) -> str:
    """One right-aligned table cell, with at least one space before it."""
    return " " + ("." if x is None else f"{x:.4g}").rjust(width - 1)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _pair(args, panel: TimeSeriesPanel) -> tuple[int, int]:
    j = _resolve_series(panel, args.source)
    i = _resolve_series(panel, args.target)
    if j == i:
        raise UsageError("source equals target; self influence is reported by `matrix`")
    return j, i


def cmd_estimate(args) -> int:
    panel = _load_panel(args)
    j, i = _pair(args, panel)
    plan = _surrogate_plan(args)
    matrix = estimate_flow_matrix(panel, args.k, pairs=[(j, i)], normalize=args.normalize, **plan)
    if args.normalize and math.isnan(matrix.normalized[i, j]):
        raise DegenerateNormalizerError(
            f"cannot normalize {panel.labels[j]} -> {panel.labels[i]}:"
            " flow, self influence and noise contributions are all zero"
        )
    n_surr = plan["surrogates"]
    scale, units = _per_step(args, panel.dt)
    own = matrix.value[i, i] * scale
    lag1 = matrix.lag1_residual_autocorr[i].item()  # the target's fit, shared by every flow into it
    serial_correlation = abs(lag1) > SERIAL_CORRELATION_LIMIT

    if args.json:
        payload = {
            "schema": ESTIMATE_SCHEMA,
            "source": panel.labels[j],
            "target": panel.labels[i],
            **_flow_fields(matrix, ([i], [j]), scale, z=True)[0],
            "n_surrogates": n_surr,
            "normalized": _json_float(matrix.normalized[i, j] if args.normalize else None),
            "self_influence": _json_float(own if args.normalize else None),
            "units": units,
            "k": args.k,
            "dt": panel.dt,
            "n_eff": matrix.n_eff,
            "serial_correlation_flag": serial_correlation,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return 0

    lines = [
        f"flow {panel.labels[j]} -> {panel.labels[i]}: {matrix.value[i, j] * scale:.6g} {units}",
        f"  stderr (asymptotic): {matrix.stderr[i, j] * scale:.6g}",
        f"  z: {matrix.z[i, j]:.6g}",
        f"  p (asymptotic): {matrix.p_asymptotic[i, j]:.4g}",
    ]
    if n_surr:
        lines.append(f"  p (surrogate, {n_surr}): {matrix.p_surrogate[i, j]:.4g}")
    if args.normalize:
        lines.append(f"  normalized: {matrix.normalized[i, j]:.6g}")
        lines.append(f"  self influence of {panel.labels[i]}: {own:.6g} {units}")
    lines.append(f"  k: {args.k}  dt: {panel.dt:g}  n_eff: {matrix.n_eff}")
    if serial_correlation:
        lines.append(
            f"  note: lag-1 residual autocorrelation {lag1:.3g}"
            f" exceeds {SERIAL_CORRELATION_LIMIT:g}; asymptotic errors may be optimistic"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_matrix(args) -> int:
    panel = _load_panel(args)
    matrix = estimate_flow_matrix(panel, args.k, normalize=args.normalize, **_surrogate_plan(args))
    scale, units = _per_step(args, panel.dt)
    labels, estimated = matrix.labels, matrix.estimated

    if args.json:
        targets, sources = (a.tolist() for a in np.nonzero(estimated))
        normalized = [None] * len(targets) if matrix.normalized is None else matrix.normalized[estimated].tolist()
        flows = [
            {"source": labels[j], "target": labels[i], **fields, "normalized": _json_float(norm)}
            for j, i, fields, norm in zip(sources, targets, _flow_fields(matrix, estimated, scale), normalized)
        ]
        diagonals = (np.diag(a).tolist() for a in (matrix.value * scale, matrix.stderr * scale, matrix.p_asymptotic))
        selfs = [
            {"target": label, "value": _json_float(value), "stderr": _json_float(stderr),
             "p_asymptotic": _json_float(p)}
            for label, value, stderr, p in zip(labels, *diagonals)
        ]
        payload = {
            "schema": MATRIX_SCHEMA,
            "labels": list(matrix.labels),
            "units": units,
            "k": matrix.k,
            "dt": matrix.dt,
            "n_eff": matrix.n_eff,
            "flows": flows,
            "self_influence": selfs,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return 0

    width = max(10, max(len(lab) for lab in matrix.labels) + 2)
    head = "target".ljust(width) + "".join(lab.rjust(width) for lab in matrix.labels)
    lines = [
        f"# flows source -> target in {units}; rows are targets; k={matrix.k} dt={matrix.dt:g} n_eff={matrix.n_eff}",
        head + "self".rjust(width),
    ]
    values = (matrix.value * scale).tolist()
    for i, (label, row, wanted) in enumerate(zip(labels, values, estimated.tolist())):
        cells = [_fmt(value if ok else None, width) for value, ok in zip(row, wanted)]
        lines.append(label.ljust(width) + "".join(cells) + _fmt(row[i], width))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_graph(args) -> int:
    panel = _load_panel(args)
    # edge penwidths want the normalized weight
    matrix = estimate_flow_matrix(panel, args.k, normalize=True, **_surrogate_plan(args))
    graph = reconstruct_graph(matrix, alpha=args.alpha, correction=args.correction)
    _emit(export_graph(graph, args.format), args.output)
    return 0


def cmd_window(args) -> int:
    panel = _load_panel(args)
    if (args.source is None) != (args.target is None):
        raise UsageError("pass both --source and --target, or neither for all pairs")
    pairs = None if args.source is None else [_pair(args, panel)]
    plan = _surrogate_plan(args)
    step = args.step if args.step is not None else args.window
    result = windowed_flows(panel, args.window, step, pairs=pairs, k=args.k, **plan)
    n_surr = plan["surrogates"]
    scale, units = _per_step(args, panel.dt)

    valid = result.valid.tolist()

    if args.json:
        series = {
            f"{s}->{t}": [fields if ok else None
                          for fields, ok in zip(_flow_fields(result, (slice(None), c), scale), valid)]
            for c, (s, t) in enumerate(result.pairs)
        }
        payload = {
            "schema": WINDOW_SCHEMA,
            "window_length": result.window_length,
            "step": result.step,
            "k": result.k,
            "dt": result.dt,
            "units": units,
            "centers": [float(c) for c in result.centers],
            "pairs": [{"source": s, "target": t} for s, t in result.pairs],
            "series": series,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0

    header = ["center"]
    for s, t in result.pairs:
        tag = f"{s}->{t}"
        header.extend([f"flow[{tag}]", f"stderr[{tag}]", f"p[{tag}]"])
        if n_surr:
            header.append(f"p_surr[{tag}]")
    columns = [(result.value * scale, ".10g"), (result.stderr * scale, ".10g"), (result.p_asymptotic, ".6g")]
    if n_surr:
        columns.append((result.p_surrogate, ".6g"))
    columns = [(a.tolist(), spec) for a, spec in columns]
    rows = [",".join(header)]
    for w, center in enumerate(result.centers):
        row = [f"{center:.10g}"]
        for c in range(len(result.pairs)):
            row.extend(format(a[w][c], spec) if valid[w] else "" for a, spec in columns)
        rows.append(",".join(row))
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _meta_path(output: str, override: str | None) -> str:
    if override:
        return override
    stem, ext = os.path.splitext(output)
    return (stem if ext else output) + ".meta.json"


def cmd_simulate(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    if args.d is not None and args.d < 1:
        raise UsageError(f"--d must be at least 1, got {args.d}")
    if args.burn_in is not None and args.burn_in < 0:
        raise UsageError(f"--burn-in must be non-negative, got {args.burn_in}")
    _require_dt(args.dt)
    if args.coupling is not None and not math.isfinite(args.coupling):
        raise UsageError(f"--coupling must be finite, got {args.coupling}")
    if args.noise is not None and not (math.isfinite(args.noise) and args.noise >= 0):
        raise UsageError(f"--noise must be a finite non-negative number, got {args.noise}")
    seed = _effective_seed(args)
    flags = {"coupling": args.coupling, "noise": args.noise, "d": args.d, "dt": args.dt, "burn_in": args.burn_in}
    params = {key: value for key, value in flags.items() if value is not None}
    if args.benchmark:
        result = benchmark(args.benchmark, params, n=args.n, seed=seed)
    else:
        system = load_system(args.system)
        stationary_covariance(system)  # rejects non-Hurwitz drift up front
        result = simulate_system(system, params, n=args.n, seed=seed)
    panel, system = result.panel, result.system

    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        write_csv(panel, fh)

    meta = {
        "schema": SIM_META_SCHEMA,
        "labels": list(panel.labels),
        "n": panel.n,
        "dt": panel.dt,
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "system": None
        if system is None
        else {"f": system.f.tolist(), "A": system.A.tolist(), "B": system.B.tolist()},
        "benchmark": result.name,
        "params": result.params,
        "true_edges": result.true_edge_strings(),
    }
    with open(_meta_path(args.output, args.meta), "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
