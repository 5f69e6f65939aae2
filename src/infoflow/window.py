"""Running-window flow analysis: how causality between pairs evolves in time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import window_cores
from .errors import InsufficientDataError, UsageError
from .estimator import _estimates, estimate_flow_matrix, read_off
from .panel import TimeSeriesPanel
from .significance import _require_surrogates, _resolve_pairs, _seed_sequence


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
        aligned with ``centers`` of the pair's ``FlowEstimate`` (value, stderr,
        asymptotic p), None where a window is missing. Built on access."""
        pairs = [(self.labels.index(s), self.labels.index(t)) for s, t in self.pairs]
        rows = [_estimates(pairs, self.value[w], self.stderr[w], self.p_asymptotic[w])
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
) -> WindowedFlowSeries:
    """Slide a window of ``window_length`` samples by ``step`` and estimate flows.

    ``pairs`` are (source, target) index pairs; all ordered pairs by default.
    Window centers are reported in time units. Window w gives the flows of
    the ``estimate_flow_matrix`` of its sub-panel restricted to ``pairs``,
    seeded with child w of ``seed``, up to round-off (bit for bit where
    window_length - k <= step): every window's core is pooled from the
    moments of its head and of runs of 2^l whole steps in O(log(window/step))
    merges (``covariance.window_cores``), and read off with the matrix's own
    ``read_off``. A window's surrogate p values are read from that seeded
    sub-panel matrix itself, so they are its own exactly. A window with too
    few samples or a singular covariance is missing from ``valid`` and NaN
    for every pair.
    """
    starts = window_starts(panel.n, window_length, step)
    seeds = _seed_sequence(seed).spawn(len(starts)) if surrogates else None
    resolved = _resolve_pairs(pairs, panel.d)
    if surrogates:
        _require_surrogates(surrogates)

    # value, stderr, z, p_asymptotic and, with surrogates, p_surrogate
    arrays = np.full((5 if surrogates else 4, len(starts), len(resolved)), np.nan)
    valid = np.zeros(len(starts), dtype=bool)
    try:
        cores = window_cores(panel, k, window_length, step, len(starts))
    except InsufficientDataError:  # every window is equally short
        cores = None
    if cores is not None:
        valid[cores.windows] = True
        targets, sources = [i for _, i in resolved], [j for j, _ in resolved]
        # public on purpose: a window run's only estimator span, which a traced benchmark run requires
        arrays[:4, cores.windows] = read_off(cores, (slice(None), targets, sources))
        if surrogates:
            for w in cores.windows.tolist():
                sub = estimate_flow_matrix(panel.window(starts[w], window_length), k, pairs=resolved,
                                           surrogates=surrogates, seed=seeds[w])
                arrays[4, w] = sub.p_surrogate[targets, sources]

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
