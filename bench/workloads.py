"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
set-up), runs one closed-loop op in ``op(i)`` (the timed region) and checks
that op's output in ``check(i, out)`` outside the timed region. Library
functions are looked up on the ``infoflow`` modules at call time, so the
tracer's wrappers see every call. Every workload uses default flags: no
``jobs`` and whatever BLAS threading the process starts with.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import infoflow as inf
from infoflow import cli

SCHEMAS = Path(inf.__file__).parent / "schemas"

ALPHA = 0.05
# Criterion 1 of the acceptance suite: cofactor flow vs normal-equations fit.
REGRESSION_RTOL = 1e-9
# Warm-up and setup inputs draw from op indices no timed op uses.
SETUP_BASE = 1_000_000


def op_seed(seed: int, i: int) -> int:
    """Input seed of op ``i``; the same (seed, i) always gives the same input."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def validator(name: str):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


@dataclass
class Check:
    """Outcome of one op's output check."""

    problems: list[str] = field(default_factory=list)
    truth: bool | None = None  # result matches the planted truth
    oracle_errs: list[float] = field(default_factory=list)  # |T_hat - T| / |T| per planted edge
    counts: dict = field(default_factory=dict)  # layer counts measured by the check

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


@dataclass
class CliRun:
    argv: list[str]
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(argv, code, out.getvalue(), err.getvalue())


def check_runs(check: Check, runs: list[CliRun]) -> bool:
    for run in runs:
        check.expect(run.code == 0, f"{run.argv[0]} exited {run.code}: {run.stderr.strip()}")
    return all(run.code == 0 for run in runs)


def check_schema(check: Check, schema, payload, what: str) -> None:
    errors = list(schema.iter_errors(payload))
    check.expect(not errors, f"{what} violates its schema: {errors[0].message if errors else ''}")


def planted_flows(system: inf.LinearSDE) -> dict[tuple[int, int], float]:
    """Lyapunov-oracle flow of every planted edge (source, target)."""
    sigma = inf.stationary_covariance(system)
    d = system.d
    return {(j, i): inf.analytic_flow(system, sigma, j, i)
            for i in range(d) for j in range(d) if i != j and system.A[i, j] != 0.0}


def oracle_errors(flow_of, planted: dict) -> list[float]:
    return [abs(flow_of(j, i) - t) / abs(t) for (j, i), t in planted.items()
            if t != 0.0 and flow_of(j, i) is not None]


class McRecovery:
    """Criterion 8 traffic: simulate a planted benchmark, estimate, build the graph."""

    name = "mc_recovery"
    layers = ("simulate", "panel", "covariance", "estimator", "significance", "graph")
    benchmarks = ("chain_3", "confounder_3")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.n = 3_000 if tiny else 100_000
        self.warmups = 2
        self.planted = {
            name: planted_flows(inf.benchmark(name, {"burn_in": 0}, n=2, seed=0).system)
            for name in self.benchmarks
        }

    def op(self, i: int):
        b = inf.benchmark(self.benchmarks[i % 2], n=self.n, seed=op_seed(self.seed, i))
        matrix = inf.estimate_flow_matrix(b.panel)
        graph = inf.reconstruct_graph(matrix, alpha=ALPHA)
        return b, matrix, graph

    def check(self, i: int, out) -> Check:
        b, matrix, graph = out
        check = Check()
        labels = b.panel.labels
        significant = set()
        for est in matrix.iter_flows():
            p = est.p_value_asymptotic
            check.expect(math.isfinite(est.value) and est.stderr is not None and est.stderr > 0
                         and p is not None and 0.0 <= p <= 1.0,
                         f"flow {est.source}->{est.target} has no valid value, stderr and p")
            if p is not None and p <= ALPHA:
                significant.add((labels[est.source], labels[est.target]))
        edges = {(e.source, e.target) for e in graph.edges}
        check.expect(graph.nodes == labels, "graph nodes differ from panel labels")
        check.expect(edges == significant, "graph edges differ from the flows with p <= alpha")
        check.truth = edges == {(labels[j], labels[i]) for j, i in b.true_edges}
        check.oracle_errs = oracle_errors(lambda j, i: matrix.flows[i][j].value, self.planted[b.name])
        return check


def sparse_stable_system(rng: np.random.Generator, d: int) -> inf.LinearSDE:
    """Sparse random coupling, shifted so the slowest mode decays at rate 1."""
    A = np.where(rng.random((d, d)) < 0.3, rng.choice([-1.0, 1.0], (d, d)) * rng.uniform(0.3, 0.8, (d, d)), 0.0)
    np.fill_diagonal(A, 0.0)
    if not A.any():
        A[1, 0] = 0.5
    A -= (np.linalg.eigvals(A).real.max() + 1.0) * np.eye(d)
    return inf.LinearSDE(f=np.zeros(d), A=A, B=np.eye(d))


def regression_flows(panel: inf.TimeSeriesPanel) -> tuple[np.ndarray, np.ndarray]:
    """Criterion 1 oracle: flows[i, j] = lstsq coefficient of j for dX_i times C_ij / C_ii.

    Also returns scales[i, j], the size of flows[i, j] were coefficient j as
    large as the largest coefficient of the fit in standardised units. A
    least-squares solve resolves each coefficient only relative to that size,
    so a near-zero flow is compared against it rather than against itself.
    """
    d, n = panel.d, panel.n
    X = panel.values[:, : n - 1]
    C = np.cov(X)
    sd = np.sqrt(np.diag(C))
    design = np.column_stack([np.ones(n - 1), X.T])
    flows, scales = np.zeros((d, d)), np.zeros((d, d))
    for i in range(d):
        dx = (panel.values[i, 1:] - panel.values[i, :-1]) / panel.dt
        beta = np.linalg.lstsq(design, dx, rcond=None)[0][1:]
        flows[i] = beta * C[i] / C[i, i]
        scales[i] = np.abs(C[i] / C[i, i]) * np.max(np.abs(beta) * sd) / sd
    return flows, scales


class PanelScreen:
    """Many short panels, d = 2..8: per-call overhead of the estimator stack."""

    name = "panel_screen"
    layers = ("panel", "covariance", "estimator", "significance", "graph")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        n, per_d = (500, 1) if tiny else (5_000, 4)
        rng = np.random.default_rng(op_seed(seed, SETUP_BASE))
        self.pool = []
        for k in range(7 * per_d):
            d = 2 + k % 7
            system = sparse_stable_system(rng, d)
            spec = inf.SimulationSpec(system=system, n=n, dt=0.05, seed=int(rng.integers(2**63)), burn_in=1_000)
            panel = inf.euler_maruyama(spec)
            self.pool.append((panel, planted_flows(system), regression_flows(panel)))
        self.warmups = len(self.pool)
        self.schema = validator("graph")

    def op(self, i: int):
        panel = self.pool[i % len(self.pool)][0]
        matrix = inf.estimate_flow_matrix(panel, normalize=True)
        graph = inf.reconstruct_graph(matrix, correction="benjamini_hochberg")
        return matrix, inf.export_graph(graph, "json")

    def check(self, i: int, out) -> Check:
        matrix, text = out
        panel, planted, (expected, scales) = self.pool[i % len(self.pool)]
        check = Check()
        payload = json.loads(text)
        check_schema(check, self.schema, payload, "graph JSON")
        check.expect(tuple(payload["nodes"]) == panel.labels, "graph nodes differ from panel labels")
        check.expect(all(e["p"] <= ALPHA for e in payload["edges"]), "graph kept an edge with p > alpha")
        for est in matrix.iter_flows():
            want = expected[est.target, est.source]
            scale = max(abs(est.value), abs(want), scales[est.target, est.source], 1e-300)
            check.expect(abs(est.value - want) <= REGRESSION_RTOL * scale,
                         f"flow {est.source}->{est.target} = {est.value!r} but regression gives {want!r}")
        check.oracle_errs = oracle_errors(lambda j, i: matrix.flows[i][j].value, planted)
        return check


class CliSurrogate:
    """The ``simulate -> graph`` pipeline with surrogate p values, through the CLI."""

    name = "cli_surrogate"
    layers = ("cli", "simulate", "panel", "covariance", "estimator", "significance", "graph")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.n, self.surrogates = (1_000, 19) if tiny else (10_000, 199)
        self.csv = str(workdir / "sim.csv")
        self.meta = str(workdir / "sim.meta.json")
        self.graph = str(workdir / "graph.json")
        self.warmups = 2
        self.planted = planted_flows(inf.benchmark("chain_3", {"burn_in": 0}, n=2, seed=0).system)
        self.graph_schema = validator("graph")
        self.meta_schema = validator("sim-meta")

    def op(self, i: int):
        s = str(op_seed(self.seed, i))
        runs = [run_cli(["simulate", "--benchmark", "chain_3", "--n", str(self.n), "--seed", s, "-o", self.csv])]
        if runs[0].code == 0:
            runs.append(run_cli(["graph", self.csv, "--surrogates", str(self.surrogates), "--seed", s,
                                 "--format", "json", "-o", self.graph]))
        return runs

    def check(self, i: int, runs) -> Check:
        check = Check()
        if not check_runs(check, runs) or len(runs) < 2:
            return check
        with open(self.meta, encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(self.graph, encoding="utf-8") as fh:
            graph = json.load(fh)
        check_schema(check, self.meta_schema, meta, "simulation metadata")
        check_schema(check, self.graph_schema, graph, "graph JSON")
        check.expect(meta["seed"] == op_seed(self.seed, i) and meta["n"] == self.n,
                     "simulation metadata does not echo the requested seed and n")
        labels = meta["labels"]
        edges = {(e["source"], e["target"]): e["flow"] for e in graph["edges"]}
        planted = {(labels[int(a) - 1], labels[int(b) - 1])
                   for a, b in (edge.split("->") for edge in meta["true_edges"])}
        check.truth = set(edges) == planted
        check.oracle_errs = oracle_errors(lambda j, i: edges.get((labels[j], labels[i])), self.planted)
        check.counts = {"cli.output_bytes": sum(len(r.stdout.encode()) for r in runs)
                        + os.path.getsize(self.meta) + os.path.getsize(self.graph)}
        return check


class CliWindow:
    """The ``window`` stage over regime-switch panels read from CSV."""

    name = "cli_window"
    layers = ("cli", "panel", "covariance", "estimator", "significance", "window")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        # Criterion 9's scenario (coupling switches on halfway), at a step of 100.
        self.n, self.window, self.step, files = (2_000, 400, 100, 1) if tiny else (20_000, 4_000, 100, 3)
        self.switch = self.n // 2
        self.paths = []
        for f in range(files):
            panel, _ = inf.regime_switch_panel(self.n, self.switch, coupling=2.0, dt=0.01,
                                               seed=op_seed(seed, SETUP_BASE + f))
            path = workdir / f"regime{f}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                inf.write_csv(panel, fh)
            self.paths.append(str(path))
        self.starts = list(range(0, self.n - self.window + 1, self.step))
        self.warmups = 2
        self.schema = validator("window")

    def op(self, i: int):
        return [run_cli(["window", self.paths[i % len(self.paths)], "--window", str(self.window),
                         "--step", str(self.step), "--json"])]

    def check(self, i: int, runs) -> Check:
        check = Check()
        if not check_runs(check, runs):
            return check
        payload = json.loads(runs[0].stdout)
        check_schema(check, self.schema, payload, "window JSON")
        series = payload["series"].get("y->x", [])
        check.expect(len(payload["centers"]) == len(self.starts) and len(series) == len(self.starts),
                     f"expected {len(self.starts)} windows, got {len(payload['centers'])}")
        significant = [w for w, e in enumerate(series)
                       if e is not None and e["p_asymptotic"] is not None and e["p_asymptotic"] <= 0.01]
        # Criterion 9 allows +/-2 windows at a step of half a window, i.e.
        # one window length of samples either side of the switch.
        check.truth = bool(significant) and abs(self.starts[significant[0]] - self.switch) <= self.window
        check.counts = {"cli.output_bytes": len(runs[0].stdout.encode())}
        return check


WORKLOADS = {w.name: w for w in (McRecovery, PanelScreen, CliSurrogate, CliWindow)}
