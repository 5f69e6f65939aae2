"""Running-window flow analysis: how causality between pairs evolves in time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import build_covariance_set, window_cores
from .errors import InsufficientDataError, UsageError
from .estimator import _estimates, read_off
from .panel import TimeSeriesPanel
from .significance import (
    _require_method,
    _require_surrogates,
    _resolve_pairs,
    _spawn_seeds,
    _surrogate_p_values,
)


@dataclass(frozen=True, eq=False)
class WindowedFlowSeries:
    """Per-window flow estimates for selected ordered pairs of ``labels``.

    ``value``, ``stderr``, ``z``, ``p_asymptotic`` and ``p_surrogate`` (None
    when no surrogates were drawn) are W x P arrays: row w is the window
    centred at ``centers[w]`` and column c is ``pairs[c]``, a (source label,
    target label) pair. ``valid`` marks the windows that were estimated; a
    window that failed the sample-count precondition or had singular
    covariance is NaN in every array (absent, not an error).
    """

    window_length: int
    step: int
    centers: tuple[float, ...]
    labels: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    value: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    p_asymptotic: np.ndarray
    valid: np.ndarray
    k: int
    dt: float
    p_surrogate: np.ndarray | None = None

    @property
    def n_windows(self) -> int:
        return len(self.centers)

    @property
    def flows(self) -> dict:
        """Read-only view kept only for ``bench/``: ``flows[pair]`` is a tuple
        aligned with ``centers`` of the pair's ``FlowEstimate``, None where a
        window is missing. Built from the arrays on every access."""
        pairs = [(self.labels.index(s), self.labels.index(t)) for s, t in self.pairs]
        arrays = (self.value, self.stderr, self.z, self.p_asymptotic, self.p_surrogate)
        rows = [_estimates(pairs, self.k, self.window_length - self.k,
                           *(None if a is None else a[w] for a in arrays), None)
                if valid else [None] * len(pairs) for w, valid in enumerate(self.valid.tolist())]
        return {pair: tuple(row[c] for row in rows) for c, pair in enumerate(self.pairs)}


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
    own ``read_off`` (``covariance.window_cores``). A window that draws
    surrogates draws them on its sub-panel's own core, so its surrogate
    p values are the matrix's exactly. A window with too few samples or a
    singular covariance is missing from ``valid`` and NaN for every pair.
    """
    starts = window_starts(panel.n, window_length, step)
    seeds = _spawn_seeds(seed, len(starts)) if surrogates else None
    resolved = _resolve_pairs(pairs, panel.d)
    if surrogates:
        _require_surrogates(surrogates)
        _require_method(surrogate_method)

    # value, stderr, z, p_asymptotic and, with surrogates, p_surrogate
    arrays = np.full((5 if surrogates else 4, len(starts), len(resolved)), np.nan)
    valid = np.zeros(len(starts), dtype=bool)
    try:
        cores = window_cores(panel, k, window_length, step, len(starts))
    except InsufficientDataError:  # every window is equally short
        cores = None
    if cores is not None:
        valid[cores.windows] = True
        arrays[:4, cores.windows] = read_off(cores, (slice(None), [i for _, i in resolved],
                                                     [j for j, _ in resolved]))
        if surrogates:  # on each window's own core, as its sub-panel's matrix draws them
            for w in cores.windows.tolist():
                arrays[4, w] = _surrogate_p_values(
                    build_covariance_set(panel.window(starts[w], window_length), k), resolved,
                    n_surrogates=surrogates, seed=seeds[w], method=surrogate_method)

    return WindowedFlowSeries(
        window_length=int(window_length),
        step=int(step),
        centers=tuple((start + (window_length - 1) / 2.0) * panel.dt for start in starts),
        labels=panel.labels,
        pairs=tuple((panel.labels[j], panel.labels[i]) for j, i in resolved),
        value=arrays[0],
        stderr=arrays[1],
        z=arrays[2],
        p_asymptotic=arrays[3],
        valid=valid,
        k=int(k),
        dt=panel.dt,
        p_surrogate=arrays[4] if surrogates else None,
    )
