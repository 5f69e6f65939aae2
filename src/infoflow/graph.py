"""Significance-filtered causal graphs and their DOT/JSON serializations."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .estimator import FlowMatrix

GRAPH_SCHEMA = "infoflow-graph/1"

CORRECTIONS = ("none", "bonferroni", "benjamini_hochberg")


def _json_report(payload) -> str:
    """A JSON report as one compact line: ``json.dumps`` with its default
    separators, which CPython encodes in C (an ``indent`` sends it through
    the pure-Python encoder), and a newline. Every report is written
    through here; ``python -m json.tool`` pretty-prints one."""
    return json.dumps(payload) + "\n"


def _json_list(a: np.ndarray) -> list:
    """``a.tolist()`` of a 1-D float array, with None (JSON null) at each
    entry that is not finite."""
    values = a.tolist()
    for m in np.flatnonzero(~np.isfinite(a)).tolist():
        values[m] = None
    return values


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
    return _bh_adjust(ps)


def reconstruct_graph(
    matrix: FlowMatrix,
    alpha: float = 0.05,
    correction: str = "none",
) -> CausalGraph:
    """Keep the edges whose corrected p value is at most alpha.

    The edge p value is the surrogate one where one was drawn, the
    asymptotic one otherwise; the correction spans the d(d-1) directed-pair
    family, the off-diagonal entries of the matrix, whichever pairs drew
    surrogates. Self loops are gated by their own (uncorrected) asymptotic
    p value.
    """
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
    if correction not in CORRECTIONS:
        raise UsageError(f"unknown correction {correction!r}; choose from {CORRECTIONS}")
    d, labels = matrix.d, matrix.labels
    arrays = (matrix.value, matrix.p_asymptotic, matrix.p_surrogate, matrix.normalized)
    if any(a is not None and np.shape(a) != (d, d) for a in arrays):
        raise UsageError("flow matrix shape does not match its labels")

    off = ~np.eye(d, dtype=bool)
    ps = matrix.p_asymptotic[off]
    if matrix.p_surrogate is not None:
        ps = np.where(np.isnan(matrix.p_surrogate[off]), ps, matrix.p_surrogate[off])
    targets, sources = (a.tolist() for a in np.nonzero(off))
    if np.isnan(ps).any():
        c = np.isnan(ps).argmax()  # the first flow without one
        raise UsageError(f"flow {sources[c]}->{targets[c]} carries no p value; attach significance first")
    corrected = _corrected(ps, correction).tolist()
    normalized = [None] * len(ps) if matrix.normalized is None else _json_list(matrix.normalized[off])

    edges = [
        GraphEdge(source=labels[j], target=labels[i], flow=flow, normalized=norm, p=p)
        for j, i, flow, norm, p in zip(sources, targets, matrix.value[off].tolist(), normalized, corrected)
        if p <= alpha
    ]
    edges.sort(key=lambda e: (e.source, e.target))
    self_loops = [
        SelfLoop(node=node, value=value, p=p, included=value != 0.0 and p is not None and p <= alpha)
        for node, value, p in zip(labels, np.diag(matrix.value).tolist(),
                                  _json_list(np.diag(matrix.p_asymptotic)))
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
    edges. JSON follows the infoflow-graph/1 schema, is one compact line
    (``_json_report``) and round-trips through ``import_graph`` unchanged;
    ``import_graph`` reads any layout of the same JSON.
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
            "edges": [vars(e) for e in graph.edges],
            "self_loops": [vars(s) for s in graph.self_loops],
            "meta": {name: getattr(graph, name) for name in ("alpha", "correction", "k", "dt", "n_eff")},
        }
        return _json_report(payload)
    raise UsageError(f"unknown graph format {format!r}; choose dot or json")


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _probability(x) -> bool:
    return _real(x) and 0.0 <= x <= 1.0


def _count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _check_values(graph: CausalGraph) -> CausalGraph:
    """``graph`` if every value obeys the rules of schemas/graph.schema.json,
    among them that the nodes are distinct and that each edge joins two of
    them and each self loop is on one; a UsageError naming the first that
    does not otherwise."""
    nodes = {node for node in graph.nodes if isinstance(node, str)}
    rules = [("nodes", graph.nodes and len(nodes) == len(graph.nodes))]
    rules += [(f"edge {e}", isinstance(e.source, str) and isinstance(e.target, str)
               and e.source != e.target and e.source in nodes and e.target in nodes and _real(e.flow)
               and (e.normalized is None or _real(e.normalized) and -1.0 <= e.normalized <= 1.0)
               and _probability(e.p)) for e in graph.edges]
    rules += [(f"self loop {s}", isinstance(s.node, str) and s.node in nodes and _real(s.value)
               and (s.p is None or _probability(s.p)) and isinstance(s.included, bool))
              for s in graph.self_loops]
    rules += [(f"alpha {graph.alpha!r}", _probability(graph.alpha)),
              (f"correction {graph.correction!r}", graph.correction in CORRECTIONS),
              (f"k {graph.k!r}", _count(graph.k)),
              (f"dt {graph.dt!r}", _real(graph.dt) and graph.dt > 0.0),
              (f"n_eff {graph.n_eff!r}", _count(graph.n_eff))]
    for what, ok in rules:
        if not ok:
            raise UsageError(f"invalid graph JSON: {what} breaks {GRAPH_SCHEMA}")
    return graph


def import_graph(text: str) -> CausalGraph:
    """Rebuild a CausalGraph from its JSON export. Text that does not parse,
    or parses to anything but the export's fields and values, is a
    UsageError."""
    try:
        payload = json.loads(text)
        schema = payload.get("schema")
        if schema == GRAPH_SCHEMA:
            return _check_values(CausalGraph(
                nodes=tuple(payload["nodes"]),
                edges=tuple(GraphEdge(**e) for e in payload["edges"]),
                self_loops=tuple(SelfLoop(**s) for s in payload["self_loops"]),
                **payload["meta"],
            ))
    except KeyError as exc:
        raise UsageError(f"invalid graph JSON: missing {exc}") from exc
    except (json.JSONDecodeError, AttributeError, TypeError) as exc:
        raise UsageError(f"invalid graph JSON: {exc}") from exc
    raise UsageError(f"unsupported graph schema {schema!r}")
