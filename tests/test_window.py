import inspect
import tracemalloc

import numpy as np
import pytest

from infoflow import (
    TimeSeriesPanel,
    benchmark,
    estimate_flow,
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
    assert len(res.flows[("a", "b")]) == 9


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
    est = res.flows[("y", "x")][0]
    assert est.value == estimate_flow(b.panel, 1, 0).value


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
    b = np.concatenate([np.zeros(200), rng.standard_normal(200)])
    panel = TimeSeriesPanel(("a", "b"), np.vstack([a, b]))
    res = windowed_flows(panel, 100, 100, pairs=[(1, 0)])
    series = res.flows[("b", "a")]
    assert series[0] is None and series[1] is None
    assert series[2] is not None and series[3] is not None


def test_windows_with_surrogates_are_seeded():
    b = benchmark("one_way_2d", None, n=3000, seed=5)
    r1 = windowed_flows(b.panel, 1000, 1000, pairs=[(1, 0)], surrogates=19, seed=7)
    r2 = windowed_flows(b.panel, 1000, 1000, pairs=[(1, 0)], surrogates=19, seed=7)
    p1 = [e.p_value_surrogate for e in r1.flows[("y", "x")]]
    p2 = [e.p_value_surrogate for e in r2.flows[("y", "x")]]
    assert p1 == p2
    assert all(p is not None for p in p1)


def test_same_seed_repeats_overlapping_windows():
    b = benchmark("one_way_2d", None, n=4000, seed=6)
    first = windowed_flows(b.panel, 1000, 500, pairs=[(1, 0)], surrogates=19, seed=1)
    again = windowed_flows(b.panel, 1000, 500, pairs=[(1, 0)], surrogates=19, seed=1)
    for a, b_ in zip(first.flows[("y", "x")], again.flows[("y", "x")]):
        assert a.value == b_.value and a.p_value_surrogate == b_.p_value_surrogate


def test_regime_switch_from_insignificant_to_significant():
    panel, switch = regime_switch_panel(20_000, 10_000, coupling=2.0, dt=0.01, seed=1)
    res = windowed_flows(panel, 4000, 2000, pairs=[(1, 0)])
    ps = [e.p_value_asymptotic for e in res.flows[("y", "x")]]
    starts = range(0, 20_000 - 4000 + 1, 2000)
    pre = [p for s, p in zip(starts, ps) if s + 4000 <= switch]
    post = [p for s, p in zip(starts, ps) if s >= switch]
    assert min(pre) > 0.01
    assert max(post) < 1e-6


def assert_flow_parity(got, want):
    """A window's flow against its sub-panel matrix's: value and stderr within
    1e-12 stderr, z and p within 1e-12, every other field exactly equal."""
    assert (got is None) == (want is None)
    if got is None:
        return
    for field in ("source", "target", "k", "n_eff", "p_value_surrogate", "normalized"):
        assert getattr(got, field) == getattr(want, field), field
    scale = 1e-12 * want.stderr
    assert abs(got.value - want.value) <= scale
    assert abs(got.stderr - want.stderr) <= scale
    for field in ("z_score", "p_value_asymptotic"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b or abs(a - b) <= 1e-12, field


def test_window_entries_equal_seeded_matrix_of_sub_panel():
    b = benchmark("chain_3", None, n=4000, seed=9)
    pairs = [(0, 1), (2, 0)]
    res = windowed_flows(b.panel, 1500, 1000, pairs=pairs, surrogates=19, seed=12)
    children = np.random.SeedSequence(12).spawn(res.n_windows)
    for w, start in enumerate(range(0, 4000 - 1500 + 1, 1000)):
        sub = estimate_flow_matrix(b.panel.window(start, 1500), pairs=pairs, surrogates=19,
                                   seed=children[w])
        for (j, i), key in zip(pairs, res.pairs):
            assert_flow_parity(res.flows[key][w], sub.flows[i][j])


def test_surrogate_count_checked_when_every_window_is_short():
    panel = benchmark("chain_3", None, n=400, seed=1).panel
    with pytest.raises(ResolutionError):
        windowed_flows(panel, 4, 100, surrogates=5, seed=1)


def sub_panel_flows(panel, window_length, step, pairs, k=1):
    """Per window, the flows of ``pairs`` of its sub-panel's matrix, or None."""
    out = []
    for start in range(0, panel.n - window_length + 1, step):
        try:
            sub = estimate_flow_matrix(panel.window(start, window_length), k, pairs=pairs)
        except (InsufficientDataError, SingularCovarianceError):
            out.append([None] * len(pairs))
            continue
        out.append([sub.flows[i][j] for j, i in pairs])
    return out


def assert_windows_match_sub_panels(panel, window_length, step, pairs, k=1):
    res = windowed_flows(panel, window_length, step, pairs=pairs, k=k)
    want = sub_panel_flows(panel, window_length, step, pairs, k)
    assert res.n_windows == len(want)
    for w, row in enumerate(want):
        for key, expected in zip(res.pairs, row):
            assert_flow_parity(res.flows[key][w], expected)
    return res


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_windows_match_sub_panels_over_k_and_d(k, d):
    # n_eff = 401 - k is coprime to the step 37: windows cut segments of 2 lengths
    panel = random_panel(make_rng(40 + d), d, 1200, dt=0.1)
    pairs = [(j, i) for i in range(d) for j in range(d) if i != j]
    assert_windows_match_sub_panels(panel, 401, 37, pairs, k)


@pytest.mark.parametrize("window_length, step", [(60, 1), (150, 400), (150, 150)])
def test_windows_match_sub_panels_at_step_1_and_step_beyond_window(window_length, step):
    panel = benchmark("chain_3", None, n=900, seed=4).panel
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
    missing = [est is None for est in res.flows[("b", "a")]]
    assert missing == [start + 100 <= 251 for start in range(0, 501, 30)]


def test_perfect_fit_window_warns_and_matches_its_sub_panel():
    # x1 follows x2 without noise for its first 300 samples, with noise after
    rng = make_rng(15)
    n, dt = 600, 0.01
    x2 = rng.standard_normal(n)
    x1 = np.empty(n)
    x1[0] = 0.1
    for m in range(n - 1):
        x1[m + 1] = x1[m] + dt * (2.0 * x1[m] - x2[m]) + (0.1 * rng.standard_normal() if m >= 300 else 0.0)
    panel = TimeSeriesPanel(("x1", "x2"), np.vstack([x1, x2]), dt=dt)
    with pytest.warns(DegenerateInferenceWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        res = windowed_flows(panel, 100, 50, pairs=[(1, 0)])
    assert (caught[0].filename, caught[0].lineno) == (__file__, line)
    with pytest.warns(DegenerateInferenceWarning):
        want = sub_panel_flows(panel, 100, 50, [(1, 0)])
    perfect = 0
    for got, (expected,) in zip(res.flows[("x2", "x1")], want):
        if expected.stderr == 0.0:
            perfect += 1
            assert got.stderr == 0.0
            assert got.value == pytest.approx(expected.value, rel=1e-12)
            assert (got.z_score, got.p_value_asymptotic) == (expected.z_score, expected.p_value_asymptotic)
        else:
            assert_flow_parity(got, expected)
    assert perfect == 5  # the windows that end before sample 301


PEAK_STEP_1_BYTES = 8_000_000


def test_step_1_memory_stays_bounded():
    # 1501 windows of 499 one-sample segments: the merge peaked at 2.1 MB in
    # chunks, and at 78 MB when it gathered every window's segments at once
    panel = random_panel(make_rng(16), 2, 2000)
    tracemalloc.start()
    try:
        res = windowed_flows(panel, 500, 1, pairs=[(1, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_windows == 1501
    assert peak < PEAK_STEP_1_BYTES
