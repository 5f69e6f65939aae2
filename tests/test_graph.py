import dataclasses
import json

import numpy as np
import pytest

from infoflow import (
    FlowMatrix,
    benchmark,
    estimate_flow_matrix,
    export_graph,
    import_graph,
    reconstruct_graph,
)
from infoflow.errors import UsageError
from infoflow.graph import _bh_adjust


def toy_matrix(p_values, labels=("a", "b"), self_p=(1.0, 1.0), normalized=None):
    """Hand-built flow matrix; p_values keyed by (source, target), None for
    a missing p value. Only the self influences carry a stderr and z."""
    d = len(labels)
    off = ~np.eye(d, dtype=bool)
    value = np.array([[-1.0 - i if i == j else 0.1 * (j + 1) + 0.01 * i for j in range(d)] for i in range(d)])
    p = np.diag(np.asarray(self_p, dtype=float))
    norm = None if normalized is None else np.full((d, d), np.nan)
    for (j, i), pv in p_values.items():
        p[i, j] = np.nan if pv is None else pv
        if normalized is not None:
            norm[i, j] = normalized[(j, i)]
    return FlowMatrix(
        labels=tuple(labels),
        value=value,
        stderr=np.where(off, np.nan, 0.1),
        z=np.where(off, np.nan, -5.0),
        p_asymptotic=p,
        estimated=off,
        lag1_residual_autocorr=np.full(d, np.nan),
        k=1,
        dt=0.5,
        n_eff=500,
        normalized=norm,
    )


def test_all_insignificant_gives_empty_edge_set():
    m = toy_matrix({(0, 1): 1.0, (1, 0): 1.0})
    g = reconstruct_graph(m, alpha=0.05)
    assert g.edges == ()
    dot = export_graph(g, "dot")
    assert dot.startswith("digraph G {")
    assert "->" not in dot
    assert '"a";' in dot and '"b";' in dot


def test_single_edge_json_has_all_five_fields():
    m = toy_matrix({(0, 1): 1.0, (1, 0): 0.001})
    g = reconstruct_graph(m, alpha=0.05)
    payload = json.loads(export_graph(g, "json"))
    assert payload["schema"] == "infoflow-graph/1"
    assert len(payload["edges"]) == 1
    edge = payload["edges"][0]
    assert set(edge) == {"source", "target", "flow", "normalized", "p"}
    assert edge["source"] == "b" and edge["target"] == "a"


def test_json_round_trip_identity():
    b = benchmark("chain_3", None, n=20_000, seed=8)
    m = estimate_flow_matrix(b.panel, normalize=True)
    g = reconstruct_graph(m, alpha=0.05)
    assert g.edges  # nonempty on this seed
    back = import_graph(export_graph(g, "json"))
    assert back == g


def test_export_determinism():
    m = toy_matrix({(0, 1): 0.01, (1, 0): 0.2})
    g1 = reconstruct_graph(m, alpha=0.05)
    g2 = reconstruct_graph(m, alpha=0.05)
    for fmt in ("dot", "json"):
        assert export_graph(g1, fmt) == export_graph(g2, fmt)


def test_unknown_format_rejected():
    g = reconstruct_graph(toy_matrix({(0, 1): 1.0, (1, 0): 1.0}))
    with pytest.raises(UsageError):
        export_graph(g, "graphml")


def test_edge_set_monotone_in_alpha():
    rng = np.random.default_rng(0)
    ps = {}
    for pair in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]:
        ps[pair] = float(rng.uniform(0, 1))
    m = toy_matrix(ps, labels=("a", "b", "c"), self_p=(1.0, 1.0, 1.0))
    previous = set()
    for alpha in (0.0, 0.05, 0.2, 0.5, 0.8, 1.0):
        edges = {
            (e.source, e.target) for e in reconstruct_graph(m, alpha=alpha).edges
        }
        assert previous <= edges
        previous = edges


def test_alpha_zero_empty_alpha_one_full():
    ps = {(0, 1): 0.4, (1, 0): 0.9}
    m = toy_matrix(ps)
    assert reconstruct_graph(m, alpha=0.0).edges == ()
    assert len(reconstruct_graph(m, alpha=1.0).edges) == 2


def test_bonferroni_scales_p_values():
    ps = {(0, 1): 0.02, (1, 0): 0.4}
    m = toy_matrix(ps)
    # 2 hypotheses: corrected p = 0.04 passes, raw 0.02 would also pass
    g = reconstruct_graph(m, alpha=0.05, correction="bonferroni")
    assert [(e.source, e.target) for e in g.edges] == [("a", "b")]
    assert g.edges[0].p == pytest.approx(0.04)
    # at alpha = 0.03 the corrected value fails
    assert reconstruct_graph(m, alpha=0.03, correction="bonferroni").edges == ()


def test_benjamini_hochberg_hand_example():
    # classic step-up: adjusted = min over ranks >= own of p*m/rank
    ps = np.array([0.01, 0.02, 0.04, 0.5])
    adjusted = _bh_adjust(ps)
    assert adjusted == pytest.approx([0.04, 0.04, 0.04 * 4 / 3, 0.5])


def bh_step_up_loop(ps):
    """Benjamini-Hochberg by the explicit step-up loop: the oracle of the
    vectorised ``_bh_adjust``."""
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    adjusted = np.empty(m)
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, ps[idx] * m / rank)
        adjusted[idx] = running
    return adjusted


def test_bh_adjust_matches_step_up_loop():
    rng = np.random.default_rng(12)
    for m in range(1, 51):
        # draws from a pool of about m/2 values, so most families hold ties
        pool = np.concatenate([rng.uniform(0.0, 1.0, max(1, m // 2)), [0.0, 1.0]])
        ps = rng.choice(pool, m)
        assert np.array_equal(_bh_adjust(ps), bh_step_up_loop(ps)), m


def test_bh_correction_in_graph():
    ps = {(0, 1): 0.01, (1, 0): 0.04, (0, 2): 0.02, (2, 0): 0.5, (1, 2): 0.9, (2, 1): 0.7}
    m = toy_matrix(ps, labels=("a", "b", "c"), self_p=(1.0, 1.0, 1.0))
    g = reconstruct_graph(m, alpha=0.08, correction="benjamini_hochberg")
    got = {(e.source, e.target) for e in g.edges}
    # adjusted: 0.01*6/1=0.06, 0.02*6/2=0.06, 0.04*6/3=0.08 -> all three pass
    assert got == {("a", "b"), ("a", "c"), ("b", "a")}


def test_self_loops_gated_by_alpha():
    m = toy_matrix({(0, 1): 1.0, (1, 0): 1.0}, self_p=(0.001, 0.5))
    g = reconstruct_graph(m, alpha=0.05)
    loops = {s.node: s.included for s in g.self_loops}
    assert loops == {"a": True, "b": False}
    dot = export_graph(g, "dot")
    assert '"a" -> "a"' in dot
    assert '"b" -> "b"' not in dot


def test_dot_labels_and_penwidth_proportional():
    ps = {(0, 1): 0.001, (1, 0): 0.002}
    norm = {(0, 1): 0.5, (1, 0): 0.25}
    m = toy_matrix(ps, normalized=norm, self_p=(1.0, 1.0))
    dot = export_graph(reconstruct_graph(m, alpha=0.01), "dot")
    assert 'penwidth=2' in dot  # 4 * 0.5
    assert 'penwidth=1' in dot  # 4 * 0.25
    # labels carry 4 significant digits of the flow
    assert 'label="0.11"' in dot or 'label="0.101"' in dot


def test_missing_p_values_rejected():
    m = toy_matrix({(0, 1): None, (1, 0): 0.5})
    with pytest.raises(UsageError, match="no p value"):
        reconstruct_graph(m)


def test_mismatched_dimensions_rejected():
    m = toy_matrix({(0, 1): 0.5, (1, 0): 0.5})
    bad = dataclasses.replace(m, labels=("a", "b", "c"))
    with pytest.raises(UsageError):
        reconstruct_graph(bad)


def test_invalid_alpha_and_correction_rejected():
    m = toy_matrix({(0, 1): 0.5, (1, 0): 0.5})
    with pytest.raises(UsageError):
        reconstruct_graph(m, alpha=1.5)
    with pytest.raises(UsageError):
        reconstruct_graph(m, correction="sidak")


def test_surrogate_p_preferred_when_present():
    m = toy_matrix({(0, 1): 1.0, (1, 0): 1.0})
    value, p, p_surrogate = m.value.copy(), m.p_asymptotic.copy(), np.full((2, 2), np.nan)
    # asymptotic insignificant but surrogate significant: edge appears
    value[0, 1], p[0, 1], p_surrogate[0, 1] = 0.2, 0.9, 0.005
    m2 = dataclasses.replace(m, value=value, p_asymptotic=p, p_surrogate=p_surrogate)
    g = reconstruct_graph(m2, alpha=0.05)
    assert [(e.source, e.target) for e in g.edges] == [("b", "a")]
    assert g.edges[0].p == 0.005


def test_chain_recovery_single_seed():
    b = benchmark("chain_3", None, n=100_000, seed=2)
    m = estimate_flow_matrix(b.panel)
    g = reconstruct_graph(m, alpha=0.05)
    got = {(e.source, e.target) for e in g.edges}
    assert got == {("x1", "x2"), ("x2", "x3")}
    # mean-reverting drift shows up as self loops on every node
    assert all(s.included for s in g.self_loops)


def test_confounder_recovery_single_seed():
    b = benchmark("confounder_3", None, n=100_000, seed=2)
    m = estimate_flow_matrix(b.panel)
    g = reconstruct_graph(m, alpha=0.05)
    got = {(e.source, e.target) for e in g.edges}
    assert got == {("x3", "x1"), ("x3", "x2")}


def test_matrix_restricted_by_pairs_is_refused():
    # the correction spans all d(d-1) directed pairs, so a graph of a
    # restricted matrix would correct over too small a family
    panel = benchmark("chain_3", None, n=5000, seed=1).panel
    m = estimate_flow_matrix(panel, pairs=[(0, 1)])
    with pytest.raises(UsageError, match="ordered pairs"):
        reconstruct_graph(m, correction="bonferroni")
