import inspect
import tracemalloc

import numpy as np
import pytest

from infoflow import (
    TimeSeriesPanel,
    covariance,
    benchmark,
    build_covariance_set,
    estimate_flow_matrix,
    regime_switch_panel,
    windowed_flows,
)
from infoflow.errors import (
    DegenerateInferenceWarning,
    InsufficientDataError,
    ResolutionError,
    SingularCovarianceError,
    UsageError,
)
from conftest import make_rng, random_panel


def test_window_count_arithmetic():
    panel = TimeSeriesPanel(("a", "b"), make_rng(0).standard_normal((2, 1000)))
    res = windowed_flows(panel, 200, 100, pairs=[(0, 1)])
    assert res.n_windows == 9  # floor((1000-200)/100) + 1
    assert res.value.shape == (9, 1)


def test_centers_strictly_increasing_and_scaled_by_dt():
    panel = TimeSeriesPanel(("a", "b"), make_rng(1).standard_normal((2, 600)), dt=0.25)
    res = windowed_flows(panel, 100, 50, pairs=[(0, 1)])
    centers = np.array(res.centers)
    assert (np.diff(centers) > 0).all()
    assert centers[0] == pytest.approx((99 / 2) * 0.25)


def test_degenerate_single_window_equals_plain_estimate():
    b = benchmark("one_way_2d", None, n=2000, seed=3)
    res = windowed_flows(b.panel, b.panel.n, b.panel.n, pairs=[(1, 0)])
    assert res.n_windows == 1
    assert res.value[0, 0] == build_covariance_set(b.panel, 1).flows[0, 1]



@pytest.mark.parametrize("window_length, step", [(150, 150), (150, 400), (500, 600),
                                                 (20_000, 20_000), (40_000, 40_000)])
@pytest.mark.parametrize("k", [1, 2])
def test_one_segment_windows_equal_their_sub_panels_bit_for_bit(window_length, step, k):
    # a window of n_eff <= step samples is one segment, centred once by its
    # own mean as its sub-panel's core is, so C, G and the flows are equal;
    # also where the moment product sums over several runs of samples
    # (covariance._SCATTER_BUDGET), which the segments share with the core
    panel = benchmark("chain_3", None, n=3000 if window_length < 3000 else 60_000, seed=k).panel
    res = windowed_flows(panel, window_length, step, k=k)
    for w, start in enumerate(range(0, panel.n - window_length + 1, step)):
        flows = build_covariance_set(panel.window(start, window_length), k).flows
        for c, (source, target) in enumerate(res.pairs):
            j, i = panel.labels.index(source), panel.labels.index(target)
            assert res.value[w, c] == flows[i, j]


def test_window_the_pooled_rule_refuses_is_decided_on_its_own_data():
    # y = x + c z on a random walk x about 50: window 1's correlation
    # determinant lies just above NEAR_SINGULAR_RTOL, where its sub-panel's
    # core estimates, but the pooled moments round it below; decided again
    # on its own centred data, the window reports its sub-panel's flows
    rng = np.random.default_rng(0)
    x = 50 + 0.1 * np.cumsum(rng.standard_normal(3000))
    z = rng.standard_normal(3000)
    panel = TimeSeriesPanel(("x", "y"), np.vstack([x, x + 1.6006e-6 * z]))
    res = windowed_flows(panel, 1000, 100, k=1)
    flows = build_covariance_set(panel.window(100, 1000), 1).flows
    assert res.valid[1]
    for c, (source, target) in enumerate(res.pairs):
        j, i = panel.labels.index(source), panel.labels.index(target)
        assert res.value[1, c] == flows[i, j]


def test_window_under_the_pooled_floor_is_decided_on_its_own_data():
    # b is 100 but for 1e-11 noise about 0 in window 10: the pooled floor
    # adds the magnitudes of the panel's mean and of the window's own, so it
    # zeroes b's tiny deviation where the sub-panel's floor does not
    rng = np.random.default_rng(5)
    b = np.full(3000, 100.0)
    b[1000:2000] = 1e-11 * rng.standard_normal(1000)
    panel = TimeSeriesPanel(("a", "b"), np.vstack([rng.standard_normal(3000), b]))
    res = windowed_flows(panel, 1000, 100, k=1)
    flows = build_covariance_set(panel.window(1000, 1000), 1).flows
    assert res.valid[10]
    for c, (source, target) in enumerate(res.pairs):
        j, i = panel.labels.index(source), panel.labels.index(target)
        assert res.value[10, c] == flows[i, j]


def test_plainly_singular_windows_are_not_decided_again(monkeypatch):
    # a constant stretch and a repeated series fail the rule far from its
    # line: those windows cost no per-window pass over their own data
    calls = []
    centred_stack = covariance._centred_stack
    monkeypatch.setattr(covariance, "_centred_stack",
                        lambda panel, k: calls.append(1) or centred_stack(panel, k))
    rng = make_rng(6)
    x = rng.standard_normal(20000)
    for c in (0.0, 0.1, -7.3, 1e6 + 0.1):
        y = np.concatenate([np.full(15000, c), rng.standard_normal(5000)])
        res = windowed_flows(TimeSeriesPanel(("x", "y"), np.vstack([x, y])), 1000, 10, pairs=[(1, 0)])
        assert 0 < res.valid.sum() < res.n_windows, c
    res = windowed_flows(TimeSeriesPanel(("x", "y"), np.vstack([x, x])), 1000, 10, pairs=[(1, 0)])
    assert not res.valid.any()
    assert calls == []


def test_all_pairs_by_default():
    panel = TimeSeriesPanel(("a", "b", "c"), make_rng(2).standard_normal((3, 400)))
    res = windowed_flows(panel, 200, 200)
    assert set(res.pairs) == {
        ("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b")
    }


def test_window_longer_than_series_rejected():
    panel = TimeSeriesPanel(("a", "b"), make_rng(3).standard_normal((2, 100)))
    with pytest.raises(UsageError, match="exceeds"):
        windowed_flows(panel, 101, 10)
    with pytest.raises(UsageError):
        windowed_flows(panel, 50, 0)


def test_singular_window_reported_absent_not_error():
    # first half of series b is constant: those windows cannot be estimated
    rng = make_rng(4)
    a = rng.standard_normal(400)
    noise = rng.standard_normal(200)
    for c in (0.0, 0.1, 1 / 3, -7.3, 1e6 + 0.1):
        panel = TimeSeriesPanel(("a", "b"), np.vstack([a, np.concatenate([np.full(200, c), noise])]))
        res = windowed_flows(panel, 100, 100, pairs=[(1, 0)])
        assert res.valid.tolist() == [False, False, True, True], c
        # 101 samples, 100 of them in C: each window is exactly one step
        res = windowed_flows(panel, 101, 100, pairs=[(1, 0)])
        assert res.valid.tolist() == [False, False, True], c


def test_window_its_sub_panel_refuses_is_missing_with_surrogates():
    # y = x + c z is near-collinear with x: near the NEAR_SINGULAR_RTOL line the
    # pooled moments of a window can pass where its sub-panel's refit refuses.
    # Such a window is decided on its own data, so it is missing with and
    # without surrogates, and every window is valid exactly when its
    # sub-panel has a matrix
    rng = np.random.default_rng(0)
    x = 50 + 0.1 * np.cumsum(rng.standard_normal(3000))
    z = rng.standard_normal(3000)
    starts = range(0, 2001, 100)

    def panel_at(c):
        return TimeSeriesPanel(("x", "y"), np.vstack([x, x + c * z]))

    def refused(c, start):
        try:
            build_covariance_set(panel_at(c).window(start, 1000), 1)
        except SingularCovarianceError:
            return True
        return False

    # the line's c per window depends on BLAS round-off: bisect it, refused at lo
    for w, start in enumerate(starts):
        lo, hi = 1e-8, 1e-4
        assert refused(lo, start) and not refused(hi, start)
        for _ in range(60):
            mid = np.sqrt(lo * hi)
            lo, hi = (mid, hi) if refused(mid, start) else (lo, mid)
        plain = windowed_flows(panel_at(lo), 1000, 100)
        res = windowed_flows(panel_at(lo), 1000, 100, surrogates=19, seed=1)
        assert plain.valid.tolist() == [not refused(lo, s) for s in starts], w
        assert res.valid.tolist() == plain.valid.tolist(), w
        assert np.isnan(res.p_surrogate[w]).all()
        assert not np.isnan(res.p_surrogate[res.valid]).any()
        for name in ("value", "stderr", "z", "p_asymptotic"):
            assert np.isnan(getattr(res, name)[w]).all(), name
            assert np.array_equal(getattr(res, name), getattr(plain, name), equal_nan=True), name


def test_window_the_pooled_rule_passes_is_decided_on_its_own_data(monkeypatch):
    # pooled and sub-panel determinants differ in their last bits; with the
    # rule's line between them, the pooled moments pass a window that its
    # sub-panel refuses, so the window must be decided on its own data
    panel, _ = regime_switch_panel(20_000, 10_000, coupling=2.0, dt=0.01, seed=3)
    starts = range(0, 20_000 - 4000 + 1, 100)
    pooled = covariance.window_cores(panel, 1, 4000, 100, len(starts)).det_corr
    sub = np.array([build_covariance_set(panel.window(s, 4000), 1).det_corr for s in starts])
    w = int(np.argmax(pooled - sub))
    line = sub[w] + (pooled[w] - sub[w]) / 2
    assert sub[w] < line <= pooled[w]
    monkeypatch.setattr(covariance, "NEAR_SINGULAR_RTOL", line)

    def accepted(start):
        try:
            build_covariance_set(panel.window(start, 4000), 1)
        except SingularCovarianceError:
            return False
        return True

    plain = windowed_flows(panel, 4000, 100, pairs=[(1, 0)])
    drawn = windowed_flows(panel, 4000, 100, pairs=[(1, 0)], surrogates=19, seed=1)
    assert not plain.valid[w]
    assert plain.valid.tolist() == drawn.valid.tolist() == [accepted(s) for s in starts]


def test_windows_with_surrogates_are_seeded():
    b = benchmark("one_way_2d", None, n=3000, seed=5)
    r1 = windowed_flows(b.panel, 1000, 1000, pairs=[(1, 0)], surrogates=19, seed=7)
    r2 = windowed_flows(b.panel, 1000, 1000, pairs=[(1, 0)], surrogates=19, seed=7)
    assert r1.p_surrogate.tolist() == r2.p_surrogate.tolist()
    assert not np.isnan(r1.p_surrogate).any()


def test_same_seed_repeats_overlapping_windows():
    b = benchmark("one_way_2d", None, n=4000, seed=6)
    first = windowed_flows(b.panel, 1000, 500, pairs=[(1, 0)], surrogates=19, seed=1)
    again = windowed_flows(b.panel, 1000, 500, pairs=[(1, 0)], surrogates=19, seed=1)
    assert first.value.tolist() == again.value.tolist()
    assert first.p_surrogate.tolist() == again.p_surrogate.tolist()


def test_regime_switch_from_insignificant_to_significant():
    panel, switch = regime_switch_panel(20_000, 10_000, coupling=2.0, dt=0.01, seed=1)
    res = windowed_flows(panel, 4000, 2000, pairs=[(1, 0)])
    ps = res.p_asymptotic[:, 0].tolist()
    starts = range(0, 20_000 - 4000 + 1, 2000)
    pre = [p for s, p in zip(starts, ps) if s + 4000 <= switch]
    post = [p for s, p in zip(starts, ps) if s >= switch]
    assert min(pre) > 0.01
    assert max(post) < 1e-6


def assert_flow_parity(res, w, c, sub, j, i, window):
    """Entry [w, c] of a window series against the flow j -> i of the matrix
    ``sub`` of window w's sub-panel ``window`` (None where it has none, and
    then NaN in every array): value and stderr within 1e-12 stderr plus the
    round-off each inherits from C_ij, z and p within 1e-12, pair, k, n_eff
    and surrogate p exactly equal.

    Both sides hold C_ij to within a few eps sqrt(C_ii C_jj), whatever C_ij
    is. The flow is B_ji C_ij / C_ii and its stderr se(B_ji) |C_ij / C_ii|,
    so each carries 8 eps sqrt(C_jj / C_ii) times |B_ji| or se(B_ji), read
    off the sub-panel's core; 1e-12 stderr alone goes to 0 with C_ij."""
    got = [a[w, c] for a in (res.value, res.stderr, res.z, res.p_asymptotic)]
    assert res.valid[w] == (sub is not None)
    if sub is None:
        assert np.isnan(got).all()
        return
    assert res.pairs[c] == (sub.labels[j], sub.labels[i])
    assert (res.k, res.window_length - res.k) == (sub.k, sub.n_eff)
    assert (res.p_surrogate is None) == (sub.p_surrogate is None)
    if sub.p_surrogate is not None:
        assert res.p_surrogate[w, c] == sub.p_surrogate[i, j]
    value, stderr, z, p = got
    core = build_covariance_set(window, sub.k)
    C, se = core.matrix, sub.stderr[i, j]
    spread = 8 * np.finfo(float).eps * np.sqrt(C[j, j] / C[i, i])
    assert abs(value - sub.value[i, j]) <= 1e-12 * se + spread * abs(core.coefficients[j, i])
    assert abs(stderr - se) <= 1e-12 * se + spread * se / abs(C[i, j] / C[i, i])
    for field, a, b in (("z", z, sub.z[i, j]), ("p", p, sub.p_asymptotic[i, j])):
        assert a == b or abs(a - b) <= 1e-12, field


def test_window_entries_equal_seeded_matrix_of_sub_panel():
    b = benchmark("chain_3", None, n=4000, seed=9)
    pairs = [(0, 1), (2, 0)]
    res = windowed_flows(b.panel, 1500, 1000, pairs=pairs, surrogates=19, seed=12)
    children = np.random.SeedSequence(12).spawn(res.n_windows)
    for w, start in enumerate(range(0, 4000 - 1500 + 1, 1000)):
        window = b.panel.window(start, 1500)
        sub = estimate_flow_matrix(window, pairs=pairs, surrogates=19, seed=children[w])
        for c, (j, i) in enumerate(pairs):
            assert_flow_parity(res, w, c, sub, j, i, window)


def test_surrogate_count_checked_when_every_window_is_short():
    panel = benchmark("chain_3", None, n=400, seed=1).panel
    with pytest.raises(ResolutionError):
        windowed_flows(panel, 4, 100, surrogates=5, seed=1)


def sub_panel_matrices(panel, window_length, step, pairs, k=1):
    """Per window, its sub-panel and the sub-panel's matrix restricted to
    ``pairs``, or None for the matrix."""
    out = []
    for start in range(0, panel.n - window_length + 1, step):
        window = panel.window(start, window_length)
        try:
            out.append((window, estimate_flow_matrix(window, k, pairs=pairs)))
        except (InsufficientDataError, SingularCovarianceError):
            out.append((window, None))
    return out


def assert_windows_match_sub_panels(panel, window_length, step, pairs, k=1):
    res = windowed_flows(panel, window_length, step, pairs=pairs, k=k)
    want = sub_panel_matrices(panel, window_length, step, pairs, k)
    assert res.n_windows == len(want)
    for w, (window, sub) in enumerate(want):
        for c, (j, i) in enumerate(pairs):
            assert_flow_parity(res, w, c, sub, j, i, window)
    return res


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_windows_match_sub_panels_over_k_and_d(k, d):
    # n_eff = 401 - k is coprime to the step 37: windows cut segments of 2 lengths
    panel = random_panel(make_rng(40 + d), d, 1200, dt=0.1)
    pairs = [(j, i) for i in range(d) for j in range(d) if i != j]
    assert_windows_match_sub_panels(panel, 401, 37, pairs, k)


# chain_3 at n = 900, seed 4 unless the case names another panel. At step 1
# some windows of some seeds correlate a pair's two series near 0, where the
# round-off that C_ij carries dominates the bound; so do windows of the two
# n = 3000 panels, on which 1e-12 stderr alone was missed by up to 59x
STEP_CASES = [
    pytest.param("chain_3", 900, 4, 60, 1, False, id="60-1"),
    pytest.param("chain_3", 900, 4, 150, 400, False, id="150-400"),
    pytest.param("chain_3", 900, 4, 150, 150, False, id="150-150"),
    pytest.param("chain_3", 900, 4, 300, 10, True, id="offset-300-10"),
    pytest.param("chain_3", 900, 4, 60, 1, True, id="offset-60-1"),
    # q = 64 (one run), q = 63 (every digit) and q = 42 with a head of 5
    *(pytest.param("chain_3", 900, 4, window_length, step, offset,
                   id=f"{'offset-' * offset}{window_length}-{step}")
      for window_length, step in ((65, 1), (64, 1), (300, 7)) for offset in (False, True)),
    *(pytest.param("chain_3", 900, seed, 60, 1, offset, id=f"{'offset-' * offset}60-1-seed{seed}")
      for offset in (False, True) for seed in range(12) if seed != 4),
    pytest.param("chain_3", 3000, 3, 400, 10, False, id="chain_3-seed3-400-10"),
    pytest.param("confounder_3", 3000, 1, 500, 1, False, id="confounder_3-seed1-500-1"),
]


@pytest.mark.parametrize("name, n, seed, window_length, step, offset", STEP_CASES)
def test_windows_match_sub_panels_at_step_1_and_step_beyond_window(name, n, seed, window_length, step, offset):
    panel = benchmark(name, None, n=n, seed=seed).panel
    if offset:  # x1 raised by 1e6 plus a ramp of 0.01 per sample
        values = panel.values.copy()
        values[0] += 1e6 + 0.01 * np.arange(panel.n)
        panel = TimeSeriesPanel(panel.labels, values, panel.dt)
    assert_windows_match_sub_panels(panel, window_length, step, [(0, 1), (1, 2), (2, 0)])


def test_windows_match_sub_panels_for_negative_pair_indices():
    panel = benchmark("chain_3", None, n=3000, seed=8).panel
    res = assert_windows_match_sub_panels(panel, 700, 90, [(-3, 1), (2, -2), (-1, 0)])
    assert res.pairs == (("x1", "x2"), ("x3", "x2"), ("x3", "x1"))


def test_windows_match_sub_panels_on_criterion_9_panel():
    panel, _ = regime_switch_panel(200_000, 100_000, coupling=2.0, dt=0.01, seed=0)
    assert_windows_match_sub_panels(panel, 4000, 1000, [(1, 0), (0, 1)])


def test_singular_windows_are_none_among_good_ones():
    rng = make_rng(14)
    a = rng.standard_normal(600)
    b = np.concatenate([np.zeros(250), rng.standard_normal(350)])
    panel = TimeSeriesPanel(("a", "b"), np.vstack([a, b]))
    res = assert_windows_match_sub_panels(panel, 100, 30, [(1, 0), (0, 1)])
    missing = (~res.valid).tolist()
    assert missing == [start + 100 <= 251 for start in range(0, 501, 30)]


def perfect_fit_panel():
    """x1 follows x2 without noise for its first 300 samples, with noise after."""
    rng = make_rng(15)
    n, dt = 600, 0.01
    x2 = rng.standard_normal(n)
    x1 = np.empty(n)
    x1[0] = 0.1
    for m in range(n - 1):
        x1[m + 1] = x1[m] + dt * (2.0 * x1[m] - x2[m]) + (0.1 * rng.standard_normal() if m >= 300 else 0.0)
    return TimeSeriesPanel(("x1", "x2"), np.vstack([x1, x2]), dt=dt)


def test_perfect_fit_window_warns_and_matches_its_sub_panel():
    panel = perfect_fit_panel()
    with pytest.warns(DegenerateInferenceWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        res = windowed_flows(panel, 100, 50, pairs=[(1, 0)])
    assert (caught[0].filename, caught[0].lineno) == (__file__, line)
    with pytest.warns(DegenerateInferenceWarning):
        want = sub_panel_matrices(panel, 100, 50, [(1, 0)])
    perfect = 0
    for w, (window, sub) in enumerate(want):
        if sub.stderr[0, 1] == 0.0:
            perfect += 1
            assert res.stderr[w, 0] == 0.0
            assert res.value[w, 0] == pytest.approx(sub.value[0, 1], rel=1e-12)
            assert (res.z[w, 0], res.p_asymptotic[w, 0]) == (sub.z[0, 1], sub.p_asymptotic[0, 1])
        else:
            assert_flow_parity(res, w, 0, sub, 1, 0, window)
    assert perfect == 5  # the windows that end before sample 301


def test_perfect_fit_windows_warn_once_and_draw_their_sub_panels_surrogates():
    # the surrogates read each window's core, which does not warn; only the
    # one read-off over every window does
    panel = perfect_fit_panel()
    with pytest.warns(DegenerateInferenceWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        res = windowed_flows(panel, 100, 50, pairs=[(1, 0)], surrogates=19, seed=1)
    assert [(w.category, w.filename, w.lineno) for w in caught] == [(DegenerateInferenceWarning, __file__, line)]
    assert res.valid.all()
    seeds = np.random.SeedSequence(1).spawn(res.n_windows)
    with pytest.warns(DegenerateInferenceWarning):
        for w, seed in enumerate(seeds):
            sub = estimate_flow_matrix(panel.window(50 * w, 100), pairs=[(1, 0)], surrogates=19, seed=seed)
            assert res.p_surrogate[w, 0] == sub.p_surrogate[0, 1], w


PEAK_STEP_1_BYTES = 8_000_000


def test_step_1_memory_stays_bounded():
    # 1501 windows of 499 one-sample steps: pooled from runs of 1 to 256
    # steps, one level at a time, they peaked at 1.1 MB, and at 78 MB when
    # every window's steps were gathered at once. At step 7 each window is
    # 71 steps and a head of two samples.
    panel = random_panel(make_rng(16), 2, 2000)
    for step, n_windows in ((1, 1501), (7, 215)):
        tracemalloc.start()
        try:
            res = windowed_flows(panel, 500, step, pairs=[(1, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_windows == n_windows
        assert peak < PEAK_STEP_1_BYTES, step
