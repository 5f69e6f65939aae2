"""Running-window flow analysis: how causality between pairs evolves in time."""

from __future__ import annotations

from dataclasses import dataclass

from .covariance import window_cores
from .errors import InsufficientDataError, UsageError
from .estimator import _resolve_pairs, pack_flows
from .panel import TimeSeriesPanel
from .significance import (
    _require_method,
    _require_surrogates,
    _spawn_seeds,
    asymptotic_inference,
    surrogate_significance,
)


@dataclass(frozen=True, eq=False)
class WindowedFlowSeries:
    """Per-window flow estimates for selected ordered pairs.

    ``flows[(source_label, target_label)]`` is a tuple aligned with
    ``centers``; entries are None where a window failed the sample-count
    precondition or had singular covariance (absent, not an error).
    """

    window_length: int
    step: int
    centers: tuple[float, ...]
    pairs: tuple[tuple[str, str], ...]
    flows: dict
    k: int
    dt: float

    @property
    def n_windows(self) -> int:
        return len(self.centers)


def window_starts(n: int, window_length: int, step: int) -> list[int]:
    if window_length > n:
        raise UsageError(f"window length {window_length} exceeds series length {n}")
    if window_length < 2:
        raise UsageError("window length must be at least 2 samples")
    if step < 1:
        raise UsageError("step must be at least 1 sample")
    return list(range(0, n - window_length + 1, step))


def windowed_flows(
    panel: TimeSeriesPanel,
    window_length: int,
    step: int,
    pairs: list[tuple[int, int]] | None = None,
    k: int = 1,
    *,
    surrogates: int = 0,
    seed=None,
    surrogate_method: str = "circular_shift",
) -> WindowedFlowSeries:
    """Slide a window of ``window_length`` samples by ``step`` and estimate flows.

    ``pairs`` are (source, target) index pairs; all ordered pairs by default.
    Window centers are reported in time units. Window w gives the flows of
    the ``estimate_flow_matrix`` of its sub-panel restricted to ``pairs``,
    seeded with child w of ``seed``, up to round-off: every window's core is
    merged from one pass of segment moments and read off with the matrix's
    own array functions (``covariance.window_cores``). A window with too
    few samples or a singular covariance gives None for every pair.
    """
    starts = window_starts(panel.n, window_length, step)
    d = panel.d
    if pairs is None:
        pairs = [(j, i) for i in range(d) for j in range(d) if i != j]
    seeds = _spawn_seeds(seed, len(starts)) if surrogates else None
    resolved = _resolve_pairs(pairs, d)
    if surrogates:
        _require_surrogates(surrogates)
        _require_method(surrogate_method)

    window_rows = [[None] * len(pairs)] * len(starts)
    try:
        cores = window_cores(panel, k, window_length, step, len(starts))
    except InsufficientDataError:  # every window is equally short
        cores = None
    if cores is not None:
        stderr, z, p = asymptotic_inference(cores)
        windows = cores.windows.tolist()
        p_surrogate = None
        if surrogates:
            p_surrogate = []
            for g, w in enumerate(windows):
                core = cores.core(g, panel.window(starts[w], window_length))
                children = _spawn_seeds(seeds[w], d * d)
                p_surrogate.append([
                    surrogate_significance(core, j, i, n_surrogates=surrogates,
                                           seed=children[i * d + j], method=surrogate_method)
                    for j, i in resolved
                ])
        packed = pack_flows(resolved, int(k), cores.n_eff,
                            *(a.tolist() for a in (cores.flows, stderr, z, p)), p_surrogate=p_surrogate)
        for w, row in zip(windows, packed):
            window_rows[w] = row

    label_pairs = tuple((panel.labels[j], panel.labels[i]) for j, i in resolved)
    flows = {
        pair: tuple(row[p] for row in window_rows) for p, pair in enumerate(label_pairs)
    }
    centers = tuple((start + (window_length - 1) / 2.0) * panel.dt for start in starts)
    return WindowedFlowSeries(
        window_length=int(window_length),
        step=int(step),
        centers=centers,
        pairs=label_pairs,
        flows=flows,
        k=int(k),
        dt=panel.dt,
    )
