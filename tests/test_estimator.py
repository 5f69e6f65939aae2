import dataclasses

import numpy as np
import pytest

from infoflow import (
    FlowEstimate,
    LinearSDE,
    SimulationSpec,
    TimeSeriesPanel,
    benchmark,
    build_covariance_set,
    estimate_flow_matrix,
    euler_maruyama,
    surrogate_flow_samples,
    surrogate_significance,
    windowed_flows,
)
from infoflow.errors import DegenerateInferenceWarning, InvalidPairError, SingularCovarianceError, UsageError
from conftest import lstsq_fit, make_rng, random_panel, with_series


def orthogonal_pair_panel(cycles=25, k=1):
    """Two series whose sample covariance over the shared window is exactly 0.

    x repeats (1, 0, -1, 0), y repeats (0, 1, 0, -1): all products vanish and
    both window means are exactly zero across whole periods.
    """
    x = np.tile([1.0, 0.0, -1.0, 0.0], cycles)
    y = np.tile([0.0, 1.0, 0.0, -1.0], cycles)
    n = 4 * cycles + k  # window of n - k samples covers whole periods
    x = np.concatenate([x, np.zeros(k)])
    y = np.concatenate([y, np.zeros(k)])
    return TimeSeriesPanel(("x", "y"), np.vstack([x[:n], y[:n]]))


def test_zero_sample_covariance_kills_flow_exactly():
    panel = orthogonal_pair_panel()
    flows = build_covariance_set(panel, 1).flows
    assert flows[1, 0] == 0.0
    assert flows[0, 1] == 0.0


def test_source_equals_target_rejected():
    panel = random_panel(make_rng(0), d=2, n=50)
    with pytest.raises(InvalidPairError, match="source equals target"):
        estimate_flow_matrix(panel, pairs=[(1, 1)])


def test_singular_covariance_refused():
    row = make_rng(1).standard_normal(100)
    panel = TimeSeriesPanel(("a", "b"), np.vstack([row, row]))
    with pytest.raises(SingularCovarianceError):
        estimate_flow_matrix(panel, pairs=[(0, 1)])


def test_one_way_system_recovers_analytic_flow():
    # ground truth 1/9 from the Lyapunov solve of the generating system;
    # a single seed scatters ~12%, so test the median of a few
    truth = 1.0 / 9.0
    fwd, rev = [], []
    for seed in range(5):
        b = benchmark("one_way_2d", None, n=200_000, seed=seed)
        flows = build_covariance_set(b.panel, 1).flows
        fwd.append(flows[0, 1])
        rev.append(flows[1, 0])
    assert np.median(fwd) == pytest.approx(truth, rel=0.15)
    assert np.median(np.abs(rev)) < 0.01
    assert b.panel.n - 1 == estimate_flow_matrix(b.panel, pairs=[(1, 0)]).n_eff


def test_self_influence_equals_regression_slope_for_d1():
    # for a single series the estimator is exactly the least-squares slope
    # of the differenced series on the series itself
    sys = LinearSDE(f=[0.0], A=[[-1.0]], B=[[1.0]])
    panel = euler_maruyama(SimulationSpec(system=sys, n=200_000, dt=0.01, seed=3))
    value = estimate_flow_matrix(panel).value[0, 0]
    x = panel.values[0][:-1]
    dx = (panel.values[0][1:] - panel.values[0][:-1]) / panel.dt
    design = np.column_stack([np.ones_like(x), x])
    slope = np.linalg.lstsq(design, dx, rcond=None)[0][1]
    assert value == pytest.approx(slope, rel=1e-9)
    assert value == pytest.approx(-1.0, rel=0.10)


def test_white_noise_self_influence_is_minus_one():
    # iid noise, dt=1, k=1: slope of (x[m+1]-x[m]) on x[m] has expectation
    # cov(x, x_next - x)/var(x) = -1; pure mean reversion of white noise
    rng = make_rng(4)
    panel = TimeSeriesPanel(("w",), rng.standard_normal((1, 100_000)), dt=1.0)
    assert estimate_flow_matrix(panel).value[0, 0] == pytest.approx(-1.0, abs=0.02)


def test_ramp_target_self_influence_zero():
    panel = TimeSeriesPanel(("r",), (1.0 + 0.5 * np.arange(50))[None, :], dt=0.5)
    assert build_covariance_set(panel, 1).flows[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_fit_exact_linear_relation():
    # build x1 so that its forward difference is exactly 2*x1 - x2
    rng = make_rng(5)
    n, dt = 200, 0.01
    x2 = rng.standard_normal(n)
    x1 = np.empty(n)
    x1[0] = 0.3
    for m in range(n - 1):
        x1[m + 1] = x1[m] + dt * (2.0 * x1[m] - x2[m])
    panel = TimeSeriesPanel(("x1", "x2"), np.vstack([x1, x2]), dt=dt)
    cov = build_covariance_set(panel, 1)
    assert cov.coefficients[:, 0] == pytest.approx([2.0, -1.0], rel=1e-9)
    assert cov.residual_variance[0] < 1e-16


def test_cofactor_route_matches_normal_equations():
    # flows and fitted coefficients vs the independent least-squares oracle
    for seed in range(20):
        rng = make_rng(100 + seed)
        d = 2 + seed % 5
        panel = random_panel(rng, d=d, n=400)
        k = 1 + seed % 2
        cov = build_covariance_set(panel, k)
        for i in range(d):
            _, coefficients, _, _ = lstsq_fit(panel, i, k)
            assert np.allclose(cov.coefficients[:, i], coefficients, rtol=1e-9, atol=1e-12)
            for j in range(d):
                if j == i:
                    continue
                via_fit = coefficients[j] * cov.matrix[i, j] / cov.matrix[i, i]
                assert cov.flows[i, j] == pytest.approx(via_fit, rel=1e-9, abs=1e-15)


def test_negative_indices_map_like_python_sequences():
    b = benchmark("one_way_2d", None, n=5000, seed=0)
    with pytest.raises(InvalidPairError):
        estimate_flow_matrix(b.panel, pairs=[(-1, 1)])
    m = estimate_flow_matrix(b.panel, pairs=[(-1, 0)])
    assert m.estimated.tolist() == [[False, True], [False, False]]
    assert m.value[0, 1] == estimate_flow_matrix(b.panel, pairs=[(1, 0)]).value[0, 1]
    full = estimate_flow_matrix(b.panel)
    assert full.value[-2, -2] == full.value[0, 0]  # target 0's self influence
    assert estimate_flow_matrix(b.panel, pairs=[(0, -1)]).estimated.tolist() == [[False, False], [True, False]]
    for call in (
        lambda: estimate_flow_matrix(b.panel, pairs=[(2, 0)]),
        lambda: estimate_flow_matrix(b.panel, pairs=[(0, -3)]),
        lambda: full.value[2, 2],
    ):
        with pytest.raises(IndexError):
            call()


def test_ou_noise_intensity_recovers_diffusion():
    sys = LinearSDE(f=[0.0], A=[[-1.0]], B=[[1.0]])
    panel = euler_maruyama(SimulationSpec(system=sys, n=200_000, dt=0.01, seed=6))
    cov = build_covariance_set(panel, 1)
    assert cov.noise_intensity[0] == pytest.approx(1.0, rel=0.10)


def test_rank_deficient_design_rejected():
    row = make_rng(7).standard_normal(60)
    panel = TimeSeriesPanel(("a", "b"), np.vstack([row, 2.0 * row]))
    with pytest.raises(SingularCovarianceError):
        estimate_flow_matrix(panel)


def test_scale_equivariance():
    # rescaling source or target leaves the flow unchanged
    rng = make_rng(8)
    panel = random_panel(rng, d=3, n=500)
    base = build_covariance_set(panel, 1).flows[0, 2]
    for c in (0.1, -3.0, 40.0):
        scaled_src = with_series(panel, 2, c * panel.values[2])
        scaled_tgt = with_series(panel, 0, c * panel.values[0])
        assert build_covariance_set(scaled_src, 1).flows[0, 2] == pytest.approx(base, rel=1e-9)
        assert build_covariance_set(scaled_tgt, 1).flows[0, 2] == pytest.approx(base, rel=1e-9)


def test_shift_invariance():
    rng = make_rng(9)
    panel = random_panel(rng, d=3, n=500)
    flows = build_covariance_set(panel, 1).flows
    base, self_base = flows[0, 1], flows[0, 0]
    for j in range(3):
        shifted = build_covariance_set(with_series(panel, j, panel.values[j] + 11.0), 1).flows
        assert shifted[0, 1] == pytest.approx(base, rel=1e-9)
        assert shifted[0, 0] == pytest.approx(self_base, rel=1e-9)


def test_flow_matrix_shape_d2():
    panel = random_panel(make_rng(10), d=2, n=300)
    m = estimate_flow_matrix(panel)
    assert m.d == 2
    assert m.estimated.tolist() == [[False, True], [True, False]]
    for a in (m.value, m.stderr, m.z, m.p_asymptotic):
        assert a.shape == (2, 2)
    assert m.lag1_residual_autocorr.shape == (2,)
    assert not np.isnan(m.p_asymptotic).any()


def test_flow_matrix_agrees_with_single_estimates():
    panel = random_panel(make_rng(11), d=3, n=400)
    m = estimate_flow_matrix(panel, k=2)
    flows = build_covariance_set(panel, 2).flows
    for i in range(3):
        for j in range(3):
            if i != j:
                assert m.value[i, j] == pytest.approx(flows[i, j], rel=1e-12)
        assert m.value[i, i] == pytest.approx(flows[i, i], rel=1e-12)


def test_chain_benchmark_only_true_flows_significant():
    b = benchmark("chain_3", None, n=100_000, seed=2)
    m = estimate_flow_matrix(b.panel)
    targets, sources = np.nonzero(m.estimated & (m.p_asymptotic <= 0.05))
    significant = set(zip(sources.tolist(), targets.tolist()))
    assert significant == {(0, 1), (1, 2)}


def test_independent_noise_false_positive_rate():
    # pooled over 200 seeded trials of a 2-series iid panel, at least 90% of
    # the flow tests stay insignificant at alpha = 0.05
    total = 0
    insignificant = 0
    for seed in range(200):
        rng = make_rng(40_000 + seed)
        panel = TimeSeriesPanel(("a", "b"), rng.standard_normal((2, 2000)))
        m = estimate_flow_matrix(panel)
        ps = m.p_asymptotic[m.estimated]
        total += ps.size
        insignificant += int(np.sum(ps > 0.05))
    assert insignificant / total >= 0.90


def test_normalize_zero_flow_is_zero():
    m = estimate_flow_matrix(orthogonal_pair_panel(), normalize=True)
    assert m.normalized[0, 1] == 0.0


def test_normalize_boundary_is_plus_minus_one():
    # an integer source drives the target exactly: the flow is the only
    # nonzero contribution to the target's normalizer
    y = np.random.default_rng(0).integers(-5, 6, 40).astype(float)
    x = np.zeros(40)
    for m in range(39):
        x[m + 1] = x[m] + y[m]
    panel = TimeSeriesPanel(("x", "y"), np.vstack([x, y]))
    cov = build_covariance_set(panel, 1)
    assert cov.flows[0, 0] == 0.0 and cov.noise_intensity[0] == 0.0
    m = estimate_flow_matrix(panel, normalize=True)
    assert m.value[0, 1] != 0.0
    assert abs(m.normalized[0, 1]) == 1.0
    assert np.sign(m.normalized[0, 1]) == np.sign(m.value[0, 1])


def test_normalize_degenerate_normalizer():
    # a ramp target has a constant derivative: zero flow, zero self
    # influence and zero noise leave nothing to normalize by
    panel = TimeSeriesPanel(("x", "y"), np.vstack([np.arange(200.0), make_rng(5).standard_normal(200)]))
    m = estimate_flow_matrix(panel, normalize=True)
    assert np.isnan(m.normalized[0, 1])


def test_normalized_flow_regression_baseline():
    # frozen from the first verified run; the value sits strictly inside (0, 1)
    b = benchmark("one_way_2d", None, n=200_000, seed=7)
    norm = estimate_flow_matrix(b.panel, normalize=True).normalized[0, 1]
    assert 0.0 < norm < 1.0
    assert norm == pytest.approx(0.0637455781278692, rel=1e-10)


def test_normalized_sign_matches_flow_sign():
    panel = random_panel(make_rng(13), d=3, n=1000)
    m = estimate_flow_matrix(panel, normalize=True)
    for value, normalized in zip(m.value[m.estimated], m.normalized[m.estimated]):
        assert abs(normalized) <= 1.0
        if value != 0.0:
            assert np.sign(normalized) == np.sign(value)


def test_one_pair_matrix_equals_full_matrix_entry():
    panel = benchmark("chain_3", None, n=5000, seed=8).panel
    full = estimate_flow_matrix(panel, normalize=True, surrogates=19, seed=4)
    for i, j in zip(*np.nonzero(full.estimated)):
        one = estimate_flow_matrix(panel, pairs=[(j, i)], normalize=True, surrogates=19,
                                   seed=np.random.SeedSequence(4))
        only = np.zeros((3, 3), dtype=bool)
        only[i, j] = True
        assert np.array_equal(one.estimated, only)
        # every entry, the self influences included
        for name in ("value", "stderr", "z", "p_asymptotic", "normalized", "lag1_residual_autocorr"):
            assert np.array_equal(getattr(one, name), getattr(full, name)), name
        assert one.p_surrogate[i, j] == full.p_surrogate[i, j]
        assert np.isnan(one.p_surrogate[~only]).all()
    with pytest.raises(InvalidPairError):
        estimate_flow_matrix(panel, pairs=[(1, -2)])


def test_constant_target_refused_as_singular():
    row = make_rng(3).standard_normal(200)
    panel = TimeSeriesPanel(("a", "b"), np.vstack([row, np.full(200, 2.5)]))
    with pytest.raises(SingularCovarianceError):
        estimate_flow_matrix(panel, pairs=[(0, 1)])


def test_same_seed_sequence_twice_gives_same_surrogates():
    panel = benchmark("chain_3", None, n=3000, seed=1).panel
    seed = np.random.SeedSequence(5)
    runs = [estimate_flow_matrix(panel, surrogates=19, seed=s)
            for s in (seed, seed, np.random.SeedSequence(5))]
    p_values = [m.p_surrogate[m.estimated].tolist() for m in runs]
    assert p_values[0] == p_values[1] == p_values[2]
    cov = build_covariance_set(panel, 1)
    samples = [surrogate_flow_samples(cov, 0, 1, n_surrogates=19, seed=s)
               for s in (seed, seed, np.random.SeedSequence(5))]
    assert np.array_equal(samples[0], samples[1]) and np.array_equal(samples[0], samples[2])


def test_negative_seed_refused_by_every_surrogate_route():
    panel = benchmark("chain_3", None, n=400, seed=1).panel
    cov = build_covariance_set(panel, 1)
    calls = (
        lambda s: estimate_flow_matrix(panel, surrogates=19, seed=s),
        lambda s: surrogate_significance(cov, 0, 1, n_surrogates=19, seed=s),
        lambda s: surrogate_flow_samples(cov, 0, 1, n_surrogates=19, seed=s),
        lambda s: windowed_flows(panel, 200, 100, surrogates=19, seed=s),
    )
    for call in calls:
        for seed in (-1, np.int64(-1)):
            with pytest.raises(UsageError, match="seed must be non-negative"):
                call(seed)


def test_compat_views_match_arrays():
    # the benchmark reads FlowMatrix.flows, iter_flows() and WindowedFlowSeries.flows
    panel = benchmark("chain_3", None, n=3000, seed=3).panel
    ramp = TimeSeriesPanel(("x", "y"), np.vstack([np.arange(200.0), make_rng(5).standard_normal(200)]))
    with pytest.warns(DegenerateInferenceWarning):  # the ramp fits perfectly; its normalizer is 0
        degenerate = estimate_flow_matrix(ramp, normalize=True)
    matrices = [estimate_flow_matrix(panel), degenerate,
                estimate_flow_matrix(panel, pairs=[(0, 1), (2, 1)], normalize=True, surrogates=19, seed=2)]
    def optional(a, i, j):
        return None if a is None or np.isnan(a[i, j]) else a[i, j]

    for m in matrices:
        want = [[FlowEstimate(value=m.value[i, j], source=j, target=i, k=m.k, n_eff=m.n_eff,
                              stderr=m.stderr[i, j], p_value_asymptotic=m.p_asymptotic[i, j],
                              p_value_surrogate=optional(m.p_surrogate, i, j),
                              normalized=optional(m.normalized, i, j), z_score=m.z[i, j])
                 if m.estimated[i, j] else None for j in range(m.d)] for i in range(m.d)]
        assert [list(row) for row in m.flows] == want
        assert list(m.iter_flows()) == [est for row in want for est in row if est is not None]
        for est in m.iter_flows():
            assert all(type(x) in (int, float, type(None)) for x in dataclasses.astuple(est))
    assert degenerate.flows[0][1].normalized is None
    assert matrices[2].flows[0][1] is None and matrices[2].flows[1][0].p_value_surrogate is not None

    rng = make_rng(14)
    b = np.concatenate([np.zeros(250), rng.standard_normal(350)])
    gappy = TimeSeriesPanel(("a", "b"), np.vstack([rng.standard_normal(600), b]))
    for res in (windowed_flows(gappy, 100, 30, pairs=[(1, 0), (0, 1)]),
                windowed_flows(gappy, 100, 30, pairs=[(0, 1)], surrogates=19, seed=1)):
        assert list(res.flows) == list(res.pairs) and not res.valid.all()
        for c, (s, t) in enumerate(res.pairs):
            j, i = res.labels.index(s), res.labels.index(t)
            want = [FlowEstimate(value=res.value[w, c], source=j, target=i, k=res.k,
                                 n_eff=res.window_length - res.k, stderr=res.stderr[w, c],
                                 p_value_asymptotic=res.p_asymptotic[w, c],
                                 p_value_surrogate=None if res.p_surrogate is None else res.p_surrogate[w, c],
                                 z_score=res.z[w, c]) if res.valid[w] else None
                    for w in range(res.n_windows)]
            assert list(res.flows[(s, t)]) == want
