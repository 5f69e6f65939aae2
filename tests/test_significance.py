import inspect

import numpy as np
import pytest

from infoflow import (
    LinearSDE,
    SimulationSpec,
    TimeSeriesPanel,
    asymptotic_inference,
    benchmark,
    build_covariance_set,
    estimate_flow_matrix,
    euler_maruyama,
    surrogate_p_values,
)
from infoflow.errors import (
    DegenerateInferenceWarning,
    InvalidPairError,
    ResolutionError,
    SingularCovarianceError,
)
from infoflow.significance import SERIAL_CORRELATION_LIMIT, _fft_length, _resolve_pairs, _surrogate_flows
from conftest import make_rng, surrogate_p, with_series
from test_estimator import orthogonal_pair_panel


def pair_significance(panel, source, target, k=1):
    """The flow source -> target and its stderr, z and p from ``asymptotic_inference``."""
    m = estimate_flow_matrix(panel, k, pairs=[(source, target)])
    return tuple(a[target, source] for a in (m.value, m.stderr, m.z, m.p_asymptotic))


def test_zero_flow_centers_the_null():
    # exactly uncorrelated pair: flow 0, z 0, p 1 (the scale factor in the
    # stderr vanishes together with the estimate)
    panel = orthogonal_pair_panel()
    value, stderr, z, p = pair_significance(panel, 1, 0)
    assert value == 0.0
    assert stderr == 0.0
    assert z == 0.0
    assert p == 1.0


def test_zero_z_means_p_one():
    from infoflow.significance import two_sided_p

    assert two_sided_p(0.0) == 1.0
    assert two_sided_p(1.959963984540054) == pytest.approx(0.05, rel=1e-8)
    assert two_sided_p(50.0) < 1e-100


def test_one_way_benchmark_power_and_size():
    # driven direction detected, null direction not, in >= 90% of 100 runs
    power_hits = 0
    size_hits = 0
    for seed in range(100):
        b = benchmark("one_way_2d", None, n=50_000, seed=seed)
        *_, p_fwd = pair_significance(b.panel, 1, 0)
        *_, p_rev = pair_significance(b.panel, 0, 1)
        power_hits += p_fwd < 0.01
        size_hits += p_rev > 0.05
    assert power_hits >= 90
    assert size_hits >= 90


def test_stderr_shrinks_like_inverse_sqrt_n():
    # resimulating with twice the samples shrinks the aggregate stderr by
    # about 1/sqrt(2); single runs scatter through the covariance ratio
    sys = LinearSDE(f=[0.0, 0.0], A=[[-1.0, 0.5], [0.0, -1.0]], B=np.eye(2))
    small, big = [], []
    for seed in range(50):
        p1 = euler_maruyama(SimulationSpec(system=sys, n=10_000, dt=0.01, seed=seed, burn_in=1000))
        p2 = euler_maruyama(SimulationSpec(system=sys, n=20_000, dt=0.01, seed=5000 + seed, burn_in=1000))
        small.append(pair_significance(p1, 1, 0)[1])
        big.append(pair_significance(p2, 1, 0)[1])
    ratio = float(np.mean(big) / np.mean(small))
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.20)


def test_stderr_decreases_on_nested_subsamples():
    # fixed cross-correlated panel, nested windows of doubling length
    rng = make_rng(31)
    mix = np.array([[1.0, 0.0], [0.6, 0.8]])
    panel = TimeSeriesPanel(("a", "b"), mix @ rng.standard_normal((2, 40_000)))
    errs = []
    for n in (5000, 10_000, 20_000, 40_000):
        errs.append(pair_significance(panel.window(0, n), 1, 0)[1])
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_perfect_fit_degenerates_with_warning():
    # noise-free linear relation: residual variance 0, stderr 0, p 0
    rng = make_rng(5)
    n, dt = 200, 0.01
    x2 = rng.standard_normal(n)
    x1 = np.empty(n)
    x1[0] = 0.1
    for m in range(n - 1):
        x1[m + 1] = x1[m] + dt * (2.0 * x1[m] - x2[m])
    panel = TimeSeriesPanel(("x1", "x2"), np.vstack([x1, x2]), dt=dt)
    with pytest.warns(DegenerateInferenceWarning):
        _, stderr, _, p = pair_significance(panel, 1, 0)
    assert stderr == 0.0
    assert p == 0.0
    # both routes name the line in this file that called into the package
    cov = build_covariance_set(panel, 1)
    with pytest.warns(DegenerateInferenceWarning) as direct:
        line = inspect.currentframe().f_lineno + 1
        asymptotic_inference(cov)
    assert (direct[0].filename, direct[0].lineno) == (__file__, line)
    with pytest.warns(DegenerateInferenceWarning) as nested:
        line = inspect.currentframe().f_lineno + 1
        estimate_flow_matrix(panel)
    assert (nested[0].filename, nested[0].lineno) == (__file__, line)


def test_self_influence_significance_detects_mean_reversion():
    b = benchmark("one_way_2d", None, n=20_000, seed=1)
    m = estimate_flow_matrix(b.panel)
    assert m.p_asymptotic[0, 0] < 1e-6
    assert m.stderr[0, 0] > 0.0


def test_serial_correlation_flag_on_coarse_stride():
    # k=2 differencing overlaps windows, residuals turn serially correlated
    b = benchmark("one_way_2d", None, n=20_000, seed=2)
    lag1 = estimate_flow_matrix(b.panel, 2).lag1_residual_autocorr[0]  # target 0's fit
    assert not np.isnan(lag1)
    assert abs(lag1) > SERIAL_CORRELATION_LIMIT


def test_surrogate_needs_19():
    b = benchmark("one_way_2d", None, n=2000, seed=0)
    with pytest.raises(ResolutionError):
        estimate_flow_matrix(b.panel, surrogates=18, seed=0)


def test_surrogate_p_resolution_and_reproducibility():
    rng = make_rng(6)
    panel = TimeSeriesPanel(("a", "b"), rng.standard_normal((2, 500)))
    cov = build_covariance_set(panel, 1)
    p1 = surrogate_p(cov, 0, 1, 19, 42)
    p2 = surrogate_p(cov, 0, 1, 19, 42)
    assert p1 == p2
    # p is an integer multiple of 1/(n_surrogates + 1), at least the minimum
    steps = p1 * 20
    assert steps == pytest.approx(round(steps), abs=1e-12)
    assert p1 >= 1 / 20


def test_surrogate_same_seed_repeats():
    b = benchmark("one_way_2d", None, n=4000, seed=3)
    cov = build_covariance_set(b.panel, 1)
    first = _surrogate_flows(cov, [(1, 0)], 49, 9)
    again = _surrogate_flows(cov, [(1, 0)], 49, 9)
    assert np.array_equal(first, again)


def test_surrogate_monotone_in_observed_magnitude():
    # against a fixed surrogate sample, a larger |T| can only lower the count
    b = benchmark("one_way_2d", None, n=4000, seed=4)
    samples = np.abs(_surrogate_flows(build_covariance_set(b.panel, 1), [(1, 0)], 99, 11)[0])
    observed = abs(build_covariance_set(b.panel, 1).flows[0, 1])
    p_at = lambda t: (1 + int(np.sum(samples >= t))) / 100
    assert p_at(observed) <= p_at(observed / 2) <= p_at(observed / 10)


def test_surrogate_calibration_under_the_null():
    # independent white-noise pair: p < 0.05 should happen for roughly 5%
    # of trials; accept anywhere in [0.01, 0.10]
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = make_rng(80_000 + seed)
        panel = TimeSeriesPanel(("a", "b"), rng.standard_normal((2, 400)))
        p = surrogate_p(build_covariance_set(panel, 1), 0, 1, 199, seed)
        hits += p < 0.05
    assert 0.01 <= hits / trials <= 0.10


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", ["chain_3", "confounder_3"])
def test_surrogate_size_on_conditional_nulls(name, k):
    # the 4 null pairs of each panel are correlated with their targets
    # through the planted paths; the test is of a_ij = 0 given the other
    # series, so at alpha = 0.05 it may reject at most 10% of 400
    rejected = 0
    for seed in range(1, 101):
        b = benchmark(name, None, n=10_000, seed=seed)
        nulls = [(j, i) for j in range(3) for i in range(3) if i != j and (j, i) not in b.true_edges]
        m = estimate_flow_matrix(b.panel, k, pairs=nulls, surrogates=199, seed=seed)
        rejected += sum(m.p_surrogate[i, j] <= 0.05 for j, i in nulls)
    assert rejected <= 40


def test_surrogate_power_on_driven_direction():
    # strong coupling at n=2e4: the smallest attainable p in >= 9 of 10 runs
    floor_hits = 0
    for seed in range(10):
        b = benchmark("one_way_2d", None, n=20_000, seed=900 + seed)
        p = surrogate_p(build_covariance_set(b.panel, 1), 1, 0, 199, seed)
        floor_hits += p == pytest.approx(1 / 200)
    assert floor_hits >= 9


@pytest.mark.parametrize("k", [1, 2])
def test_self_influence_carries_its_targets_inference(k):
    panel = benchmark("chain_3", None, n=5000, seed=7).panel
    cov = build_covariance_set(panel, k)
    stderr, z, p = asymptotic_inference(cov)
    m = estimate_flow_matrix(panel, k)
    for i in range(panel.d):
        assert m.value[i, i] == cov.flows[i, i]
        assert (m.stderr[i, i], m.z[i, i], m.p_asymptotic[i, i]) == (stderr[i, i], z[i, i], p[i, i])
        assert m.lag1_residual_autocorr[i] == cov.lag1_residual_autocorr[i]


def test_matrix_surrogate_p_is_surrogate_significance_of_its_child_seed():
    # the matrix's p values are the core's, and a pair's p value is the same
    # whether it is listed alone or with every pair
    for panel, k in ((benchmark("confounder_3", None, n=3000, seed=4).panel, 1),
                     (correlated_panel(5, 2000, seed=45), 2)):
        d = panel.d
        cov = build_covariance_set(panel, k)
        every = surrogate_p_values(cov, None, n_surrogates=19, seed=12)
        matrix = estimate_flow_matrix(panel, k, surrogates=19, seed=12)
        assert np.array_equal(matrix.p_surrogate[~np.eye(d, dtype=bool)], every)
        for (j, i), p in zip(_resolve_pairs(None, d), every.tolist()):
            assert surrogate_p(cov, j, i, 19, 12) == p


def test_surrogate_p_values_check_their_request():
    cov = build_covariance_set(benchmark("chain_3", None, n=4000, seed=5).panel, 1)
    want = surrogate_p_values(cov, [(2, 0)], n_surrogates=19, seed=5)
    assert np.array_equal(surrogate_p_values(cov, [(-1, 0)], n_surrogates=19, seed=5), want)
    with pytest.raises(InvalidPairError):
        surrogate_p_values(cov, [(1, 1)], n_surrogates=19, seed=5)
    for count in (0, 18):
        with pytest.raises(ResolutionError, match="at least 19 surrogates"):
            surrogate_p_values(cov, [(0, 1)], n_surrogates=count, seed=5)


def freedman_lane_flows(panel, source, target, k, n_surrogates, seed):
    """Surrogate flows the direct way, by ``lstsq`` refits: fit dX_target on
    an intercept plus every series but the source, add each shifted residual
    (the documented draw: one generator on the stream of ``seed`` keyed by
    the pair's flat index target * d + source, all shifts over n - k in one
    ``integers`` call) back to that fit, refit on an intercept plus
    all series and scale the source's coefficient by C_ts / C_tt. X and dX
    are centred first; the intercept absorbs their means exactly, and
    uncentred the refits lose digits on an offset series."""
    n = panel.n - k
    X = panel.values[:, :n]
    Xc = X - X.mean(axis=1, keepdims=True)
    dx = (panel.values[target, k:] - X[target]) / (k * panel.dt)
    dx = dx - dx.mean()
    reduced = np.column_stack([np.ones(n), np.delete(Xc, source, axis=0).T])
    fit = reduced @ np.linalg.lstsq(reduced, dx, rcond=None)[0]
    full = np.column_stack([np.ones(n), Xc.T])
    C = np.cov(X)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(target * panel.d + source,))))
    lo = max(1, int(np.ceil(n / 10)))
    values = []
    for s in rng.integers(lo, n - lo, size=n_surrogates, endpoint=True):
        beta = np.linalg.lstsq(full, fit + np.roll(dx - fit, s), rcond=None)[0]
        values.append(beta[1 + source] * C[target, source] / C[target, target])
    return np.asarray(values)


def correlated_panel(d, n, seed):
    rng = make_rng(seed)
    mix = np.eye(d) + 0.4 * rng.standard_normal((d, d))
    walk = 0.05 * np.cumsum(rng.standard_normal((d, n)), axis=1)
    values = mix @ rng.standard_normal((d, n)) + walk + rng.normal(0.0, 3.0, (d, 1))
    return TimeSeriesPanel(tuple(f"x{m}" for m in range(d)), values, dt=0.1)


@pytest.mark.parametrize("method", ["circular_shift"])  # names the draw in the test id
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_surrogate_samples_match_replaced_source_estimates(d, k, method):
    # n = 7919 is prime; the ramp puts series 0, as source or as target, far
    # from its mean at both ends
    base = correlated_panel(d, 1500, seed=40 + d)
    ramp = with_series(base, 0, 1e6 + 0.01 * np.arange(base.n) + base.values[0])
    for panel in (base, correlated_panel(d, 7919, seed=40 + d), ramp):
        for source, target in ((0, d - 1), (d - 1, 0)):
            got = _surrogate_flows(build_covariance_set(panel, k), [(source, target)], 25, 13)[0]
            want = freedman_lane_flows(panel, source, target, k, 25, 13)
            assert got.shape == want.shape == (25,)
            assert np.isfinite(want).all()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_surrogate_samples_refuse_a_singular_core():
    # two identical non-source series make the core singular
    rng = make_rng(22)
    a, b, c = rng.standard_normal((3, 600))
    panel = TimeSeriesPanel(("a", "b", "c", "c2"), np.vstack([a, b, c, c]))
    with pytest.raises(SingularCovarianceError):
        surrogate_p_values(build_covariance_set(panel, 1), [(0, 1)], n_surrogates=20, seed=3)


def test_surrogates_read_the_core_stack_without_a_second_pass(monkeypatch):
    panel = benchmark("chain_3", None, n=2000, seed=3).panel
    cov = build_covariance_set(panel, 2)
    want = _surrogate_flows(cov, [(1, 0)], 19, 4)

    def restacked(*args, **kwargs):
        pytest.fail("the surrogate pass re-stacked the panel")

    monkeypatch.setattr("infoflow.covariance._stack", restacked)
    monkeypatch.setattr("infoflow.significance._stack", restacked, raising=False)
    assert np.array_equal(_surrogate_flows(cov, [(1, 0)], 19, 4), want)
    assert not cov.stack.flags.writeable


def test_fft_length_is_the_smallest_5_smooth_at_least_m():
    def smooth(x):
        for p in (2, 3, 5):
            while x % p == 0:
                x //= p
        return x == 1

    for m in range(1, 4097):
        assert _fft_length(m) == next(x for x in range(m, 2 * m + 1) if smooth(x))


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_surrogate_samples_invariant_to_source_scale(scale):
    # T = coef * C_ij / C_ii does not change when the source is rescaled
    panel = correlated_panel(3, 1000, seed=50)
    scaled = with_series(panel, 0, scale * panel.values[0])
    base = _surrogate_flows(build_covariance_set(panel, 1), [(0, 2)], 20, 4)
    got = _surrogate_flows(build_covariance_set(scaled, 1), [(0, 2)], 20, 4)
    assert np.isfinite(base).all()
    assert np.allclose(got, base, rtol=1e-9, atol=0.0)


def test_surrogate_indices_negative_and_out_of_range():
    cov = build_covariance_set(correlated_panel(3, 600, seed=51), 1)
    want = _surrogate_flows(cov, [(2, 0)], 20, 6)
    assert np.array_equal(_surrogate_flows(cov, _resolve_pairs([(-1, -3)], 3), 20, 6), want)
    assert surrogate_p(cov, -1, -3, 20, 6) == surrogate_p(cov, 2, 0, 20, 6)
    with pytest.raises(IndexError):
        surrogate_p(cov, 3, 0, 20, 6)
    with pytest.raises(InvalidPairError):
        surrogate_p(cov, -1, 2, 20, 6)
