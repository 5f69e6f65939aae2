"""Maximum-likelihood information-flow estimators for time-series panels.

The directed flow rate from series j to series i is, under a linear model
with additive noise, Liang's cofactor formula

    T[j->i] = (1/det C) * sum_m cof(C)[j, m] * G[m, i] * C[i, j] / C[i, i]

with C the sample covariance matrix and G the cross-covariances with the
forward-differenced series (see ``covariance``). It is evaluated as
(C^-1 G)[j, i] * C[i, j] / C[i, i], the least-squares coefficient of series
j in the regression of dX_i on all series times a correlation ratio. Every
estimate here is read off one ``CovarianceSet``. Flows are in nats per unit
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSet, build_covariance_set
from .panel import TimeSeriesPanel
from .significance import _surrogate_request, asymptotic_inference, surrogate_p_values


@dataclass(frozen=True)
class FlowEstimate:
    """One directed flow rate with its asymptotic inference: the element type
    of the read-only ``FlowMatrix.flows`` and ``WindowedFlowSeries.flows``
    views, holding only what ``bench/`` reads. Everything else a report
    holds (z, surrogate p, normalized, k, n_eff) is in its own fields."""

    value: float
    source: int
    target: int
    stderr: float
    p_value_asymptotic: float


def _estimates(pairs, value, stderr, p) -> list[FlowEstimate]:
    """The ``FlowEstimate`` of each (source, target) of ``pairs`` from 1-D
    arrays aligned with it."""
    return [FlowEstimate(value=v, source=j, target=i, stderr=se, p_value_asymptotic=pv)
            for (j, i), v, se, pv in zip(pairs, value.tolist(), stderr.tolist(), p.tolist())]


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """All pairwise flows of a panel, with each self influence on the diagonal.

    ``value``, ``stderr``, ``z`` and ``p_asymptotic`` are d x d arrays in the
    [target, source] layout of ``CovarianceSet.flows``: entry [i, j] is the
    flow j -> i and [i, i] the self influence of target i. Every entry is
    estimated. ``p_surrogate`` is NaN on the diagonal and for the pairs that
    drew no surrogates, and None when none were drawn; ``n_surrogates`` is
    the count each drew, 0 without. ``normalized`` is NaN where the
    normalizer is 0, and None unless asked for.
    ``lag1_residual_autocorr[i]`` describes the residuals of target i's fit,
    which every flow into i shares.
    """

    labels: tuple[str, ...]
    value: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    p_asymptotic: np.ndarray
    lag1_residual_autocorr: np.ndarray
    k: int
    dt: float
    n_eff: int
    p_surrogate: np.ndarray | None = None
    n_surrogates: int = 0
    normalized: np.ndarray | None = None

    @property
    def d(self) -> int:
        return len(self.labels)

    @property
    def flows(self) -> tuple:
        """Read-only view kept only for ``bench/``: ``flows[i][j]`` is the
        ``FlowEstimate`` of j -> i (value, stderr, asymptotic p), None on the
        diagonal. Built from the arrays on access."""
        estimates = self.iter_flows()  # row-major
        return tuple(tuple(None if i == j else next(estimates) for j in range(self.d)) for i in range(self.d))

    def iter_flows(self):
        """The off-diagonal flows of the ``flows`` view, target by target;
        kept only for ``bench/``."""
        off = ~np.eye(self.d, dtype=bool)
        targets, sources = np.nonzero(off)
        return iter(_estimates(zip(sources.tolist(), targets.tolist()),
                               *(a[off] for a in (self.value, self.stderr, self.p_asymptotic))))


def read_off(cov: CovarianceSet, at=()) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``cov.flows[at]`` and its ``asymptotic_inference(cov, at)``: the d x d
    arrays of one core by default, or any selection of a stack of window
    cores. Every report reads its flows and their inference through here."""
    # public on purpose: a traced run times the inference under significance
    return cov.flows[at], *asymptotic_inference(cov, at)


def estimate_flow_matrix(
    panel: TimeSeriesPanel,
    k: int = 1,
    *,
    pairs: list[tuple[int, int]] | None = None,
    normalize: bool = False,
    surrogates: int = 0,
    seed=None,
) -> FlowMatrix:
    """Estimate every ordered pair plus all self influences in one pass.

    Value and asymptotic inference cover every entry. With ``surrogates``
    >= 19, surrogate p values are drawn for the (source, target) index
    ``pairs``, every ordered pair by default; each pair draws from its own
    stream of ``seed`` (an int, None or a SeedSequence), named by its entry
    (``significance.surrogate_p_values``), so a pair's p value does not
    depend on which other pairs are listed.
    With ``normalize``, a flow is divided by |flow| + |self influence| +
    |noise intensity / (2 C_ii)| of its target. Every number is read off the
    one moment core (``read_off``); this is the one place that attaches
    inference to a flow.
    """
    d = panel.d
    pairs, seed = _surrogate_request(pairs, d, surrogates, seed)
    cov = build_covariance_set(panel, k)  # refuses a singular or too-short panel before any surrogate
    value, stderr, z, p = read_off(cov)
    p_surrogate = None
    if surrogates:
        p_surrogate = np.full((d, d), np.nan)
        p_surrogate[[i for _, i in pairs], [j for j, _ in pairs]] = surrogate_p_values(
            cov, pairs, n_surrogates=surrogates, seed=seed)
    normalized = None
    if normalize:
        noise = np.abs(cov.noise_intensity / (2.0 * np.diag(cov.matrix)))
        total = np.abs(cov.flows) + np.abs(np.diag(cov.flows))[:, None] + noise[:, None]
        normalized = np.divide(cov.flows, total, out=np.full((d, d), np.nan), where=total != 0.0)
    return FlowMatrix(labels=panel.labels, value=value, stderr=stderr, z=z, p_asymptotic=p,
                      lag1_residual_autocorr=cov.lag1_residual_autocorr, k=int(k), dt=panel.dt,
                      n_eff=cov.n_eff, p_surrogate=p_surrogate, n_surrogates=int(surrogates or 0),
                      normalized=normalized)
