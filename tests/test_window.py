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
from infoflow.errors import ResolutionError, UsageError
from conftest import make_rng


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


def test_window_entries_equal_seeded_matrix_of_sub_panel():
    b = benchmark("chain_3", None, n=4000, seed=9)
    pairs = [(0, 1), (2, 0)]
    res = windowed_flows(b.panel, 1500, 1000, pairs=pairs, surrogates=19, seed=12)
    children = np.random.SeedSequence(12).spawn(res.n_windows)
    for w, start in enumerate(range(0, 4000 - 1500 + 1, 1000)):
        sub = estimate_flow_matrix(b.panel.window(start, 1500), pairs=pairs, surrogates=19,
                                   seed=children[w])
        for (j, i), key in zip(pairs, res.pairs):
            assert res.flows[key][w] == sub.flows[i][j]


def test_surrogate_count_checked_when_every_window_is_short():
    panel = benchmark("chain_3", None, n=400, seed=1).panel
    with pytest.raises(ResolutionError):
        windowed_flows(panel, 4, 100, surrogates=5, seed=1)
