"""Significance-filtered causal graphs and their DOT/JSON serializations."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .estimator import FlowMatrix, _nan_to_none

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
    """Benjamini-Hochberg step-up adjusted p values: the smallest p * m / rank
    over each p's own rank and every rank above it, capped at 1."""
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    adjusted = np.empty(m)
    scaled = ps[order] * m / np.arange(1, m + 1)
    adjusted[order] = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
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

    The edge p value is the surrogate one where present, the asymptotic one
    otherwise; the correction spans the d(d-1) directed-pair family, the
    off-diagonal entries of the matrix. Self loops are gated by their own
    (uncorrected) asymptotic p value.
    """
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
    if correction not in CORRECTIONS:
        raise UsageError(f"unknown correction {correction!r}; choose from {CORRECTIONS}")
    d, labels = matrix.d, matrix.labels
    arrays = (matrix.value, matrix.p_asymptotic, matrix.estimated, matrix.p_surrogate, matrix.normalized)
    if any(a is not None and np.shape(a) != (d, d) for a in arrays):
        raise UsageError("flow matrix shape does not match its labels")

    off = ~np.eye(d, dtype=bool)
    estimated = matrix.estimated[off]
    if not estimated.all():
        raise UsageError(
            f"flow matrix must cover all {d * (d - 1)} ordered pairs, not {estimated.sum()};"
            " the correction spans that family"
        )
    ps = matrix.p_asymptotic[off]
    if matrix.p_surrogate is not None:
        ps = np.where(np.isnan(matrix.p_surrogate[off]), ps, matrix.p_surrogate[off])
    targets, sources = (a.tolist() for a in np.nonzero(off))
    if np.isnan(ps).any():
        c = np.isnan(ps).argmax()  # the first flow without one
        raise UsageError(f"flow {sources[c]}->{targets[c]} carries no p value; attach significance first")
    corrected = _corrected(ps, correction).tolist()
    normalized = [None] * len(ps) if matrix.normalized is None else _nan_to_none(matrix.normalized[off].tolist())

    edges = [
        GraphEdge(source=labels[j], target=labels[i], flow=flow, normalized=norm, p=p)
        for j, i, flow, norm, p in zip(sources, targets, matrix.value[off].tolist(), normalized, corrected)
        if p <= alpha
    ]
    edges.sort(key=lambda e: (e.source, e.target))
    self_loops = [
        SelfLoop(node=node, value=value, p=p, included=value != 0.0 and p is not None and p <= alpha)
        for node, value, p in zip(labels, np.diag(matrix.value).tolist(),
                                  _nan_to_none(np.diag(matrix.p_asymptotic).tolist()))
    ]
    self_loops.sort(key=lambda s: s.node)

    return CausalGraph(
        nodes=labels,
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
