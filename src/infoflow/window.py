"""Running-window flow analysis: how causality between pairs evolves in time."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .covariance import build_covariance_set
from .errors import InsufficientDataError, SingularCovarianceError, UsageError
from .estimator import estimate_flow, fit_linear_model
from .panel import TimeSeriesPanel
from .significance import asymptotic_significance, surrogate_significance


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
    Window centers are reported in time units. Each window takes one
    covariance pass; per-window surrogate seeds are derived up front.
    """
    starts = window_starts(panel.n, window_length, step)
    if pairs is None:
        pairs = [(j, i) for i in range(panel.d) for j in range(panel.d) if i != j]
    for j, i in pairs:
        if j == i:
            raise UsageError("window pairs must have source != target")

    children = None
    if surrogates:
        # the surrogate seed of pair p in window w is child w * len(pairs) + p
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = root.spawn(len(starts) * len(pairs))

    window_rows = []
    for w, start in enumerate(starts):
        sub = panel.window(start, window_length)
        try:
            cov = build_covariance_set(sub, k)
        except InsufficientDataError:
            window_rows.append([None] * len(pairs))
            continue
        fits = {}
        out = []
        for p, (j, i) in enumerate(pairs):
            try:
                est = estimate_flow(sub, j, i, k, cov=cov)
                if i not in fits:
                    fits[i] = fit_linear_model(sub, i, k, cov=cov)
                report = asymptotic_significance(fits[i], cov, est)
                est = replace(est, stderr=report.stderr, p_value_asymptotic=report.p_asymptotic)
                if surrogates:
                    surr = surrogate_significance(
                        sub,
                        j,
                        i,
                        k,
                        n_surrogates=surrogates,
                        seed=children[w * len(pairs) + p],
                        method=surrogate_method,
                        cov=cov,
                    )
                    est = replace(est, p_value_surrogate=surr.p_surrogate)
                out.append(est)
            except (InsufficientDataError, SingularCovarianceError):
                out.append(None)
        window_rows.append(out)

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
