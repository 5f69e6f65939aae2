"""Significance-filtered causal graphs and their DOT/JSON serializations."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .estimator import FlowMatrix

GRAPH_SCHEMA = "infoflow-graph/1"

CORRECTIONS = ("none", "bonferroni", "benjamini_hochberg")


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    flow: float
    normalized: float | None
    p: float


@dataclass(frozen=True)
class SelfLoop:
    node: str
    value: float
    p: float | None
    included: bool


@dataclass(frozen=True)
class CausalGraph:
    """Weighted directed graph of significant flows, self loops kept apart.

    Every edge passed the chosen correction at level alpha; edge direction
    is cause -> effect. Edges are stored sorted by (source, target) so equal
    graphs are structurally identical.
    """

    nodes: tuple[str, ...]
    edges: tuple[GraphEdge, ...]
    self_loops: tuple[SelfLoop, ...]
    alpha: float
    correction: str
    k: int
    dt: float
    n_eff: int


def _bh_adjust(ps: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p values."""
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    adjusted = np.empty(m)
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, ps[idx] * m / rank)
        adjusted[idx] = running
    return adjusted


def _corrected(ps: np.ndarray, correction: str) -> np.ndarray:
    if correction == "none":
        return ps
    if correction == "bonferroni":
        return np.minimum(ps * len(ps), 1.0)
    if correction == "benjamini_hochberg":
        return _bh_adjust(ps)
    raise UsageError(f"unknown correction {correction!r}; choose from {CORRECTIONS}")


def reconstruct_graph(
    matrix: FlowMatrix,
    alpha: float = 0.05,
    correction: str = "none",
) -> CausalGraph:
    """Keep the edges whose corrected p value is at most alpha.

    The edge p value is the surrogate one when present, the asymptotic one
    otherwise; the correction spans the d(d-1) directed-pair family. Self
    loops are gated by their own (uncorrected) asymptotic p value.
    """
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
    if correction not in CORRECTIONS:
        raise UsageError(f"unknown correction {correction!r}; choose from {CORRECTIONS}")
    d = matrix.d
    if len(matrix.flows) != d or any(len(row) != d for row in matrix.flows):
        raise UsageError("flow matrix shape does not match its labels")
    if len(matrix.self_influence) != d:
        raise UsageError("self-influence entries do not cover every node")

    flows = list(matrix.iter_flows())
    if len(flows) != d * (d - 1):
        raise UsageError(
            f"flow matrix must cover all {d * (d - 1)} ordered pairs, not {len(flows)};"
            " the correction spans that family"
        )
    ps = []
    for est in flows:
        p = est.p_value_surrogate if est.p_value_surrogate is not None else est.p_value_asymptotic
        if p is None:
            raise UsageError(
                f"flow {est.source}->{est.target} carries no p value; attach significance first"
            )
        ps.append(p)
    corrected = _corrected(np.asarray(ps), correction)

    edges = []
    for est, p in zip(flows, corrected):
        if p <= alpha:
            edges.append(
                GraphEdge(
                    source=matrix.labels[est.source],
                    target=matrix.labels[est.target],
                    flow=est.value,
                    normalized=est.normalized,
                    p=float(p),
                )
            )
    edges.sort(key=lambda e: (e.source, e.target))

    self_loops = []
    for est in matrix.self_influence:
        p = est.p_value_asymptotic
        included = est.value != 0.0 and p is not None and p <= alpha
        self_loops.append(
            SelfLoop(node=matrix.labels[est.target], value=est.value, p=p, included=included)
        )
    self_loops.sort(key=lambda s: s.node)

    return CausalGraph(
        nodes=matrix.labels,
        edges=tuple(edges),
        self_loops=tuple(self_loops),
        alpha=float(alpha),
        correction=correction,
        k=matrix.k,
        dt=matrix.dt,
        n_eff=matrix.n_eff,
    )


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _penwidth(normalized: float | None) -> float:
    if normalized is None:
        return 1.0
    return 4.0 * abs(normalized)


def export_graph(graph: CausalGraph, format: str = "dot") -> str:
    """Serialize a graph deterministically; same graph, same bytes.

    DOT edges carry the flow as label (4 significant digits) and a penwidth
    proportional to |normalized weight|; self loops render as node-to-self
    edges. JSON follows the infoflow-graph/1 schema and round-trips through
    ``import_graph`` unchanged.
    """
    if format == "dot":
        lines = ["digraph G {"]
        for node in sorted(graph.nodes):
            lines.append(f"  {_dot_quote(node)};")
        for e in sorted(graph.edges, key=lambda e: (e.source, e.target)):
            lines.append(
                f"  {_dot_quote(e.source)} -> {_dot_quote(e.target)}"
                f' [label="{e.flow:.4g}", penwidth={_penwidth(e.normalized):.4g}];'
            )
        for s in graph.self_loops:
            if s.included:
                lines.append(
                    f"  {_dot_quote(s.node)} -> {_dot_quote(s.node)}"
                    f' [label="{s.value:.4g}", penwidth=1];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        payload = {
            "schema": GRAPH_SCHEMA,
            "nodes": list(graph.nodes),
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "flow": e.flow,
                    "normalized": e.normalized,
                    "p": e.p,
                }
                for e in graph.edges
            ],
            "self_loops": [
                {"node": s.node, "value": s.value, "p": s.p, "included": s.included}
                for s in graph.self_loops
            ],
            "meta": {
                "alpha": graph.alpha,
                "correction": graph.correction,
                "k": graph.k,
                "dt": graph.dt,
                "n_eff": graph.n_eff,
            },
        }
        return json.dumps(payload, indent=2) + "\n"
    raise UsageError(f"unknown graph format {format!r}; choose dot or json")


def import_graph(text: str) -> CausalGraph:
    """Rebuild a CausalGraph from its JSON export."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid graph JSON: {exc}") from exc
    if payload.get("schema") != GRAPH_SCHEMA:
        raise UsageError(f"unsupported graph schema {payload.get('schema')!r}")
    meta = payload["meta"]
    return CausalGraph(
        nodes=tuple(payload["nodes"]),
        edges=tuple(
            GraphEdge(
                source=e["source"],
                target=e["target"],
                flow=e["flow"],
                normalized=e["normalized"],
                p=e["p"],
            )
            for e in payload["edges"]
        ),
        self_loops=tuple(
            SelfLoop(node=s["node"], value=s["value"], p=s["p"], included=s["included"])
            for s in payload["self_loops"]
        ),
        alpha=meta["alpha"],
        correction=meta["correction"],
        k=meta["k"],
        dt=meta["dt"],
        n_eff=meta["n_eff"],
    )
