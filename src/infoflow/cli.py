"""Command-line front end.

Subcommands: estimate, matrix, graph, window, simulate. Exit codes:
0 success, 2 usage error, 3 data/validation error, 4 numerical error.
All randomness is seeded; without --seed a generated seed is printed to
stderr so any run can be reproduced, and --strict-repro makes an explicit
seed mandatory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

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
from .significance import SURROGATE_METHODS
from .simulate import BENCHMARK_NAMES, DEFAULT_BURN_IN, RNG_ALGORITHM, benchmark, simulate_system
from .window import windowed_flows

ESTIMATE_SCHEMA = "infoflow-estimate/1"
MATRIX_SCHEMA = "infoflow-matrix/1"
WINDOW_SCHEMA = "infoflow-window/1"
SIM_META_SCHEMA = "infoflow-sim-meta/1"

AUTO_TIME_LABELS = ("t", "time")


# Options shared by several subcommands; each registers only those it reads.
FLAGS = {
    "--k": dict(type=int, default=1, help="differencing stride (default 1)"),
    "--dt": dict(type=float, default=None, help="time step for files without a time column"),
    "--json": dict(action="store_true", help="emit a JSON report instead of text"),
    "--seed": dict(type=int, default=None, help="seed for randomized operations"),
    "--surrogates": dict(type=int, default=0, help="surrogate count for nonparametric p values (>= 19)"),
    "--surrogate-method": dict(
        choices=SURROGATE_METHODS,
        default="circular_shift",
        help="surrogate construction (default circular_shift)",
    ),
    "--normalize": dict(action="store_true", help="also report relative-importance normalization"),
    "--per-step": dict(action="store_true", help="report flows per sample step instead of per unit time"),
    "--strict-repro": dict(action="store_true", help="refuse randomized runs without an explicit --seed"),
}

ESTIMATION_FLAGS = ("--k", "--dt", "--seed", "--surrogates", "--surrogate-method", "--strict-repro")


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **FLAGS[name])


def _ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delimiter", default=",", help="CSV field delimiter (default ,)")
    parser.add_argument("--no-header", action="store_true", help="file has no header row; labels become c0, c1, ...")
    parser.add_argument("--time-column", default=None, help="name of the time column (default: auto-detect 't'/'time')")
    parser.add_argument("--no-time-column", action="store_true", help="treat every column as data even if one looks like time")


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


def _detect_time_column(path, delimiter) -> str | None:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            first = next(csv.reader(fh, delimiter=delimiter), None)
    except OSError as exc:
        raise DataError(f"cannot read input: {exc}") from exc
    if first:
        head = first[0].strip()
        if head.lower() in AUTO_TIME_LABELS:
            return head
    return None


def _require_dt(dt: float | None) -> None:
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"--dt must be a finite positive number, got {dt}")


def _load_panel(args) -> TimeSeriesPanel:
    _require_dt(args.dt)
    has_header = not args.no_header
    time_column = args.time_column
    if time_column is None and has_header and not args.no_time_column:
        time_column = _detect_time_column(args.csv, args.delimiter)
    if args.no_time_column:
        time_column = None
    if time_column is not None and args.dt is not None:
        raise UsageError(
            f"file has time column {time_column!r}; drop --dt or pass --no-time-column"
        )
    return ingest_csv(
        args.csv,
        delimiter=args.delimiter,
        has_header=has_header,
        time_column=time_column,
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
        "surrogate_method": args.surrogate_method,
    }


def _per_step(args, dt: float) -> tuple[float, str]:
    """Scale and units of reported flows: per unit time, or per step with --per-step."""
    return (dt, "nats/step") if args.per_step else (1.0, "nats/time")


def _json_float(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _flow_fields(est, scale: float, z: bool = False) -> dict:
    """The JSON fields of one flow shared by the estimate, matrix and window reports."""
    fields = {"flow": _json_float(est.value * scale), "stderr": _json_float(est.stderr * scale)}
    if z:
        fields["z"] = _json_float(est.z_score)
    fields["p_asymptotic"] = _json_float(est.p_value_asymptotic)
    fields["p_surrogate"] = _json_float(est.p_value_surrogate)
    return fields


def _fmt(x, width: int = 0) -> str:
    s = "." if x is None else f"{x:.4g}"
    return s.rjust(width) if width else s


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
    est = matrix.flows[i][j]
    own = matrix.self_influence[i]  # the target's fit, hence its residual autocorrelation
    if args.normalize and est.normalized is None:
        raise DegenerateNormalizerError(
            f"cannot normalize {panel.labels[j]} -> {panel.labels[i]}:"
            " flow, self influence and noise contributions are all zero"
        )
    n_surr = plan["surrogates"]
    scale, units = _per_step(args, panel.dt)

    if args.json:
        payload = {
            "schema": ESTIMATE_SCHEMA,
            "source": panel.labels[j],
            "target": panel.labels[i],
            **_flow_fields(est, scale, z=True),
            "n_surrogates": n_surr,
            "normalized": _json_float(est.normalized),
            "self_influence": _json_float(own.value * scale if args.normalize else None),
            "units": units,
            "k": args.k,
            "dt": panel.dt,
            "n_eff": est.n_eff,
            "serial_correlation_flag": own.serial_correlation_flag,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return 0

    lines = [
        f"flow {panel.labels[j]} -> {panel.labels[i]}: {est.value * scale:.6g} {units}",
        f"  stderr (asymptotic): {est.stderr * scale:.6g}",
        f"  z: {est.z_score:.6g}",
        f"  p (asymptotic): {est.p_value_asymptotic:.4g}",
    ]
    if n_surr:
        lines.append(f"  p (surrogate, {n_surr}): {est.p_value_surrogate:.4g}")
    if args.normalize:
        lines.append(f"  normalized: {est.normalized:.6g}")
        lines.append(f"  self influence of {panel.labels[i]}: {own.value * scale:.6g} {units}")
    lines.append(f"  k: {args.k}  dt: {panel.dt:g}  n_eff: {est.n_eff}")
    if own.serial_correlation_flag:
        lines.append(
            f"  note: lag-1 residual autocorrelation {own.lag1_residual_autocorr:.3g}"
            " exceeds 0.2; asymptotic errors may be optimistic"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_matrix(args) -> int:
    panel = _load_panel(args)
    matrix = estimate_flow_matrix(panel, args.k, normalize=args.normalize, **_surrogate_plan(args))
    scale, units = _per_step(args, panel.dt)

    if args.json:
        flows = [
            {
                "source": matrix.labels[est.source],
                "target": matrix.labels[est.target],
                **_flow_fields(est, scale),
                "normalized": _json_float(est.normalized),
            }
            for est in matrix.iter_flows()
        ]
        selfs = [
            {
                "target": matrix.labels[s.target],
                "value": _json_float(s.value * scale),
                "stderr": _json_float(s.stderr * scale),
                "p_asymptotic": _json_float(s.p_value_asymptotic),
            }
            for s in matrix.self_influence
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
    for i, label in enumerate(matrix.labels):
        cells = []
        for jj in range(matrix.d):
            est = matrix.flows[i][jj]
            cells.append(_fmt(est.value * scale if est else None, width))
        cells.append(_fmt(matrix.self_influence[i].value * scale, width))
        lines.append(label.ljust(width) + "".join(cells))
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

    if args.json:
        series = {
            f"{s}->{t}": [None if est is None else _flow_fields(est, scale) for est in result.flows[(s, t)]]
            for s, t in result.pairs
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
    rows = [",".join(header)]
    for w, center in enumerate(result.centers):
        row = [f"{center:.10g}"]
        for pair in result.pairs:
            est = result.flows[pair][w]
            if est is None:
                row.extend([""] * (4 if n_surr else 3))
                continue
            row.append(f"{est.value * scale:.10g}")
            row.append(f"{est.stderr * scale:.10g}")
            row.append(f"{est.p_value_asymptotic:.6g}")
            if n_surr:
                row.append(f"{est.p_value_surrogate:.6g}")
        rows.append(",".join(row))
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _meta_path(output: str, override: str | None) -> str:
    if override:
        return override
    stem, ext = os.path.splitext(output)
    return (stem if ext else output) + ".meta.json"


def cmd_simulate(args) -> int:
    if args.n <= 0:
        raise UsageError("--n must be positive")
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
