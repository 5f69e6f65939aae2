"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints one pass/fail line (visible with -s) and asserts the stated
tolerance. Monte-Carlo studies use fixed seed batches so the suite is
deterministic on a given platform.
"""

import json
import time

import numpy as np
import pytest

from infoflow import (
    LinearSDE,
    SimulationSpec,
    analytic_flow,
    asymptotic_inference,
    benchmark,
    build_covariance_set,
    estimate_flow_matrix,
    euler_maruyama,
    reconstruct_graph,
    regime_switch_panel,
    stationary_covariance,
    surrogate_significance,
    transform_other_components,
    write_csv,
)
from infoflow.cli import main
from conftest import lstsq_fit, make_rng, random_panel, random_stable_system


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_estimator_matches_regression_oracle():
    # estimator vs an independent least-squares regression (the lstsq oracle
    # in conftest), 1e-9 relative, 100 random panels with d in 2..8 and
    # n = 1000, under 5 s
    start = time.perf_counter()
    worst = 0.0
    for case in range(100):
        rng = make_rng(10_000 + case)
        d = 2 + case % 7
        k = 1 + case % 2
        panel = random_panel(rng, d=d, n=1000)
        cov = build_covariance_set(panel, k)
        for i in range(d):
            _, coefficients, _, _ = lstsq_fit(panel, i, k)
            for j in range(d):
                if j == i:
                    continue
                via_cofactor = cov.flows[i, j]
                via_fit = coefficients[j] * cov.matrix[i, j] / cov.matrix[i, i]
                scale = max(abs(via_cofactor), abs(via_fit), 1e-300)
                worst = max(worst, abs(via_cofactor - via_fit) / scale)
    elapsed = time.perf_counter() - start
    criterion(
        "estimator-regression equivalence",
        worst < 1e-9 and elapsed < 5.0,
        f"max rel dev {worst:.2e} (tol 1e-9), {elapsed:.1f}s (cap 5s)",
    )


def test_02_convergence_to_analytic_flow():
    # one_way_2d at dt=0.01, n=2e5, k=1: median of 20 seeds within 15% of the
    # Lyapunov-oracle value 1/9; reverse direction near zero; under 30 s
    start = time.perf_counter()
    sys2 = LinearSDE(f=[0.0, 0.0], A=[[-1.0, 0.5], [0.0, -1.0]], B=np.eye(2))
    truth = analytic_flow(sys2, stationary_covariance(sys2), source=1, target=0)
    assert truth == pytest.approx(1 / 9, rel=1e-12)
    fwd, rev = [], []
    for seed in range(20):
        b = benchmark("one_way_2d", None, n=200_000, seed=seed)
        flows = build_covariance_set(b.panel, 1).flows
        fwd.append(flows[0, 1])
        rev.append(abs(flows[1, 0]))
    med_fwd = float(np.median(fwd))
    med_rev = float(np.median(rev))
    elapsed = time.perf_counter() - start
    criterion(
        "convergence to analytic flow",
        abs(med_fwd - truth) <= 0.15 * truth and med_rev < 0.01 and elapsed < 30.0,
        f"median {med_fwd:.5f} vs {truth:.5f} (15% band), median |reverse| {med_rev:.5f}"
        f" (<0.01), {elapsed:.1f}s (cap 30s)",
    )


def _null_pair_p_values(trial_seed: int, with_surrogates: bool):
    """One independent_d trial and one one_way_2d null-direction trial.

    n is kept moderate: shifting only the source tests for cross-dependence
    of any direction, so on the coupled pair its power against the (real)
    reverse coupling grows with the effective sample count.
    """
    out = []
    b1 = benchmark("independent_d", None, n=6000, seed=trial_seed)
    b2 = benchmark("one_way_2d", None, n=6000, seed=50_000 + trial_seed)
    for bench, (j, i) in ((b1, (1, 0)), (b2, (0, 1))):
        cov = build_covariance_set(bench.panel, 1)
        p_asym = asymptotic_inference(cov)[2][i, j]
        p_surr = None
        if with_surrogates:
            p_surr = surrogate_significance(cov, j, i, n_surrogates=199, seed=trial_seed)
        out.append((p_asym, p_surr))
    return out


def test_03_false_positive_control_on_null_couplings():
    # zero-coupling directions: asymptotic test rejects at most 8% of 200
    # trials at alpha=0.05; the 199-surrogate test at most 10%
    asym_rej = 0
    surr_rej = 0
    trials = 0
    for seed in range(100):
        for p_asym, p_surr in _null_pair_p_values(seed, with_surrogates=True):
            trials += 1
            asym_rej += p_asym <= 0.05
            surr_rej += p_surr <= 0.05
    criterion(
        "false-positive control",
        asym_rej <= 0.08 * trials and surr_rej <= 0.10 * trials,
        f"asymptotic {asym_rej}/{trials} (cap {int(0.08 * trials)}),"
        f" surrogate {surr_rej}/{trials} (cap {int(0.10 * trials)})",
    )


def test_04_flow_invariant_under_transform_of_other_components():
    # d=5 stable systems, random invertible maps of components 3..5:
    # analytic flow 2->1 invariant to 1e-10 relative
    worst = 0.0
    for seed in range(100):
        rng = make_rng(20_000 + seed)
        sys = random_stable_system(rng, d=5)
        # moderate conditioning: the similarity transform amplifies round-off
        # by cond(P)^2, so wild draws would drown the 1e-10 check in noise
        M = rng.standard_normal((3, 3))
        while np.linalg.cond(M) > 50:
            M = rng.standard_normal((3, 3))
        base = analytic_flow(sys, stationary_covariance(sys), source=1, target=0)
        moved = transform_other_components(sys, 0, 1, M)
        got = analytic_flow(moved, stationary_covariance(moved), source=1, target=0)
        worst = max(worst, abs(got - base) / max(abs(base), 1e-12))
    criterion(
        "invariance under transforms of other components",
        worst < 1e-10,
        f"max rel dev {worst:.2e} (tol 1e-10) over 100 systems",
    )


def test_05_correlation_without_causation():
    # shared driver: nonzero covariance, exactly zero flow both ways;
    # estimator p values exceed 0.05 in both directions in >= 85/100 trials
    c = 0.5
    sys3 = LinearSDE(
        f=np.zeros(3),
        A=[[-1.0, 0.0, c], [0.0, -1.0, c], [0.0, 0.0, -1.0]],
        B=np.eye(3),
    )
    S = stationary_covariance(sys3)
    exact_ok = (
        S.matrix[0, 1] > 1e-6
        and analytic_flow(sys3, S, 0, 1) == 0.0
        and analytic_flow(sys3, S, 1, 0) == 0.0
    )
    both_insig = 0
    for seed in range(100):
        b = benchmark("confounder_3", None, n=100_000, seed=seed)
        p = asymptotic_inference(build_covariance_set(b.panel, 1))[2]
        p01, p10 = p[1, 0], p[0, 1]
        both_insig += (p01 > 0.05) and (p10 > 0.05)
    criterion(
        "correlation without causation",
        exact_ok and both_insig >= 85,
        f"sigma_12 {S.matrix[0, 1]:.4f} != 0 with exact zero flows;"
        f" both directions insignificant in {both_insig}/100 (need 85)",
    )


def test_06_lyapunov_solver_residuals():
    # 100 random stable systems up to d=20: residual below
    # 1e-10 * max(1, max|BB'|)
    worst_ratio = 0.0
    for seed in range(100):
        rng = make_rng(30_000 + seed)
        d = 2 + seed % 19
        sys = random_stable_system(rng, d=d)
        S = stationary_covariance(sys)
        G = sys.noise_covariance()
        resid = float(np.abs(sys.A @ S.matrix + S.matrix @ sys.A.T + G).max())
        tol = 1e-10 * max(1.0, float(np.abs(G).max()))
        worst_ratio = max(worst_ratio, resid / tol)
    criterion(
        "Lyapunov solver residuals",
        worst_ratio < 1.0,
        f"worst residual at {worst_ratio:.2e} of tolerance over 100 systems, d<=20",
    )


def test_07_self_influence_on_mean_reverting_process():
    # 1-D mean-reverting process (a=-1, b=1) at dt=0.01, n=2e5: median of
    # 20 seeds within 10% of -1, and each estimate equals the least-squares
    # slope oracle of the differenced series on the series
    ou = LinearSDE(f=[0.0], A=[[-1.0]], B=[[1.0]])
    values = []
    oracle_dev = 0.0
    for seed in range(20):
        panel = euler_maruyama(SimulationSpec(system=ou, n=200_000, dt=0.01, seed=seed))
        value = estimate_flow_matrix(panel).value[0, 0]
        x = panel.values[0][:-1]
        dx = np.diff(panel.values[0]) / panel.dt
        design = np.column_stack([np.ones_like(x), x])
        slope = np.linalg.lstsq(design, dx, rcond=None)[0][1]
        oracle_dev = max(oracle_dev, abs(value - slope) / abs(slope))
        values.append(value)
    med = float(np.median(values))
    criterion(
        "self-influence estimator",
        abs(med - (-1.0)) <= 0.10 and oracle_dev < 1e-9,
        f"median {med:.4f} vs -1 (10% band); max dev from regression oracle"
        f" {oracle_dev:.2e}",
    )


def _recovered_exactly(bench_name: str, seed: int) -> bool:
    b = benchmark(bench_name, None, n=100_000, seed=seed)
    matrix = estimate_flow_matrix(b.panel)
    graph = reconstruct_graph(matrix, alpha=0.05, correction="none")
    found = {(e.source, e.target) for e in graph.edges}
    want = {(b.panel.labels[j], b.panel.labels[i]) for j, i in b.true_edges}
    return found == want


def test_08_planted_graph_recovery():
    # chain_3 and confounder_3 at n=1e5, alpha=0.05: the exact planted edge
    # set (no extra, no missing) in >= 80 of 100 seeds each, under 2 minutes
    start = time.perf_counter()
    chain_hits = sum(_recovered_exactly("chain_3", seed) for seed in range(100))
    conf_hits = sum(_recovered_exactly("confounder_3", seed) for seed in range(100))
    elapsed = time.perf_counter() - start
    criterion(
        "planted graph recovery",
        chain_hits >= 80 and conf_hits >= 80 and elapsed < 120.0,
        f"chain {chain_hits}/100, confounder {conf_hits}/100 (need 80 each),"
        f" {elapsed:.0f}s (cap 120s)",
    )


def test_09_windowed_regime_onset_detection(tmp_path, capsys):
    # two-regime scenario driven through the window subcommand: the first
    # significant window (p <= 0.01) lands within +/-2 of the true onset
    # window in >= 80% of 50 seeds
    n, switch, window, step = 20_000, 10_000, 4000, 2000
    starts = list(range(0, n - window + 1, step))
    true_onset = next(w for w, s in enumerate(starts) if s >= switch)
    hits = 0
    for seed in range(50):
        panel, _ = regime_switch_panel(n, switch, coupling=2.0, dt=0.01, seed=seed)
        path = tmp_path / f"regime{seed}.csv"
        with open(path, "w", newline="") as fh:
            write_csv(panel, fh)
        code = main(
            ["window", str(path), "--window", str(window), "--step", str(step),
             "--source", "y", "--target", "x", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        series = json.loads(out)["series"]["y->x"]
        sig = [w for w, entry in enumerate(series)
               if entry is not None and entry["p_asymptotic"] is not None
               and entry["p_asymptotic"] <= 0.01]
        hits += bool(sig) and abs(sig[0] - true_onset) <= 2
    criterion(
        "windowed regime onset detection",
        hits >= 40,
        f"onset within +/-2 windows in {hits}/50 seeds (need 40)",
    )


def test_10_seeded_pipelines_are_byte_identical(tmp_path, capsys):
    # simulate -> estimate/graph/window, twice each with the same seeds:
    # identical bytes on stdout and in written files
    sim_a = tmp_path / "a.csv"
    sim_b = tmp_path / "b.csv"
    sim_args = ["simulate", "--benchmark", "chain_3", "--n", "20000", "--seed", "13"]
    assert main(sim_args + ["-o", str(sim_a)]) == 0
    assert main(sim_args + ["-o", str(sim_b)]) == 0
    same_panels = sim_a.read_bytes() == sim_b.read_bytes()

    def run(args):
        assert main(args) == 0
        return capsys.readouterr().out

    est_args = ["estimate", str(sim_a), "--source", "x1", "--target", "x2",
                "--surrogates", "19", "--seed", "3", "--json", "--normalize"]
    same_estimate = run(est_args) == run(est_args)

    graph_a = tmp_path / "ga.json"
    graph_b = tmp_path / "gb.json"
    assert main(["graph", str(sim_a), "--format", "json", "-o", str(graph_a)]) == 0
    assert main(["graph", str(sim_a), "--format", "json", "-o", str(graph_b)]) == 0
    same_graph = graph_a.read_bytes() == graph_b.read_bytes()

    win_args = ["window", str(sim_a), "--window", "5000", "--step", "5000",
                "--source", "x1", "--target", "x2", "--surrogates", "19", "--seed", "5"]
    same_window = run(win_args) == run(win_args)

    criterion(
        "seeded pipelines byte-identical",
        same_panels and same_estimate and same_graph and same_window,
        f"simulate {same_panels}, estimate {same_estimate}, graph {same_graph},"
        f" window {same_window}",
    )
