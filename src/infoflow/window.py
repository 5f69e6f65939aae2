"""Running-window flow analysis: how causality between pairs evolves in time."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientDataError, SingularCovarianceError, UsageError
from .estimator import estimate_flow_matrix
from .panel import TimeSeriesPanel
from .significance import _spawn_seeds


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
    Window centers are reported in time units. Window w is the
    ``estimate_flow_matrix`` of its sub-panel restricted to ``pairs``, seeded
    with child w of ``seed``; a window with too few samples or a singular
    covariance gives None for every pair.
    """
    starts = window_starts(panel.n, window_length, step)
    if pairs is None:
        pairs = [(j, i) for i in range(panel.d) for j in range(panel.d) if i != j]

    seeds = _spawn_seeds(seed, len(starts)) if surrogates else [None] * len(starts)
    window_rows = []
    for start, child in zip(starts, seeds):
        try:
            matrix = estimate_flow_matrix(
                panel.window(start, window_length),
                k,
                pairs=pairs,
                surrogates=surrogates,
                seed=child,
                surrogate_method=surrogate_method,
            )
        except (InsufficientDataError, SingularCovarianceError):
            window_rows.append([None] * len(pairs))
            continue
        window_rows.append([matrix.flows[i][j] for j, i in pairs])

    label_pairs = tuple((panel.labels[j], panel.labels[i]) for j, i in pairs)
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
