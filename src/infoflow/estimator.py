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
from .errors import SingularCovarianceError
from .panel import TimeSeriesPanel
from .significance import (
    _require_method,
    _require_surrogates,
    _resolve_pairs,
    _surrogate_p_values,
    asymptotic_inference,
)


@dataclass(frozen=True)
class FlowEstimate:
    """One directed flow rate with its inference: the element type of the
    read-only ``FlowMatrix.flows`` and ``WindowedFlowSeries.flows`` views."""

    value: float
    source: int
    target: int
    k: int
    n_eff: int
    stderr: float | None = None
    p_value_asymptotic: float | None = None
    p_value_surrogate: float | None = None
    normalized: float | None = None
    z_score: float | None = None


def _nan_to_none(values: list) -> list:
    return [None if x != x else x for x in values]


def _estimates(pairs, k: int, n_eff: int, value, stderr, z, p, p_surrogate, normalized) -> list[FlowEstimate]:
    """The ``FlowEstimate`` of each (source, target) of ``pairs`` from 1-D
    arrays aligned with it; a NaN entry, or an array that is None, gives None."""
    fields = [[None] * len(value) if a is None else _nan_to_none(a.tolist())
              for a in (value, stderr, z, p, p_surrogate, normalized)]
    return [FlowEstimate(value=v, source=j, target=i, k=k, n_eff=n_eff, stderr=se, p_value_asymptotic=pv,
                         p_value_surrogate=ps, normalized=nz, z_score=zs)
            for (j, i), v, se, zs, pv, ps, nz in zip(pairs, *fields)]


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """All pairwise flows of a panel, with each self influence on the diagonal.

    ``value``, ``stderr``, ``z`` and ``p_asymptotic`` are d x d arrays in the
    [target, source] layout of ``CovarianceSet.flows``: entry [i, j] is the
    flow j -> i and [i, i] the self influence of target i. ``estimated``
    marks the off-diagonal pairs asked for. ``p_surrogate`` is NaN outside
    ``estimated``, and None when no surrogates were drawn; ``normalized`` is
    NaN where the normalizer is 0, and None unless asked for.
    ``lag1_residual_autocorr[i]`` describes the residuals of target i's fit,
    which every flow into i shares.
    """

    labels: tuple[str, ...]
    value: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    p_asymptotic: np.ndarray
    estimated: np.ndarray
    lag1_residual_autocorr: np.ndarray
    k: int
    dt: float
    n_eff: int
    p_surrogate: np.ndarray | None = None
    normalized: np.ndarray | None = None

    @property
    def d(self) -> int:
        return len(self.labels)

    @property
    def flows(self) -> tuple:
        """Read-only view kept only for ``bench/``: ``flows[i][j]`` is the
        ``FlowEstimate`` of j -> i, None on the diagonal and for pairs not
        estimated. Built from the arrays on every access."""
        estimates = self.iter_flows()  # in the row-major order of ``estimated``
        return tuple(tuple(next(estimates) if wanted else None for wanted in row) for row in self.estimated.tolist())

    def iter_flows(self):
        """The estimated flows of the ``flows`` view, target by target; kept
        only for ``bench/``."""
        targets, sources = np.nonzero(self.estimated)
        arrays = (self.value, self.stderr, self.z, self.p_asymptotic, self.p_surrogate, self.normalized)
        return iter(_estimates(zip(sources.tolist(), targets.tolist()), self.k, self.n_eff,
                               *(None if a is None else a[self.estimated] for a in arrays)))


def read_off(cov: CovarianceSet, at=()) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``cov.flows`` and the stderr, z and p of ``asymptotic_inference(cov)``,
    each indexed by ``at``: the d x d arrays of one core by default, or any
    selection of a stack of window cores. Every report reads its flows and
    their inference through here."""
    stderr, z, p = asymptotic_inference(cov)
    return tuple(a[at] for a in (cov.flows, stderr, z, p))


def estimate_flow_matrix(
    panel: TimeSeriesPanel,
    k: int = 1,
    *,
    pairs: list[tuple[int, int]] | None = None,
    normalize: bool = False,
    surrogates: int = 0,
    seed=None,
    surrogate_method: str = "circular_shift",
) -> FlowMatrix:
    """Estimate ordered pairs plus all self influences in one pass.

    ``pairs`` lists the (source, target) index pairs to mark ``estimated``,
    all ordered pairs by default. Asymptotic inference covers every entry;
    surrogate p values are added for the estimated pairs when
    ``surrogates`` >= 19, each pair drawing from its own child of ``seed``
    (an int, None or a SeedSequence; ``significance._surrogate_p_values``).
    With ``normalize``, a flow is divided by |flow| + |self influence| +
    |noise intensity / (2 C_ii)| of its target. Every number is read off the
    one moment core (``read_off``); this is the one place that attaches
    inference to a flow.
    """
    d = panel.d
    estimated = np.zeros((d, d), dtype=bool)
    for j, i in _resolve_pairs(pairs, d):
        estimated[i, j] = True
    if surrogates:
        _require_surrogates(surrogates)
        _require_method(surrogate_method)
    cov = build_covariance_set(panel, k)
    if cov.near_singular:
        raise SingularCovarianceError(
            "covariance matrix is singular or near-singular"
            f" (correlation det={cov.det_corr:.3e}); refusing to estimate"
        )
    p_surrogate = None
    if surrogates:
        targets, sources = np.nonzero(estimated)
        p_surrogate = np.full((d, d), np.nan)
        p_surrogate[estimated] = _surrogate_p_values(cov, list(zip(sources.tolist(), targets.tolist())),
                                                     n_surrogates=surrogates, seed=seed, method=surrogate_method)
    normalized = None
    if normalize:
        noise = np.abs(cov.noise_intensity / (2.0 * np.diag(cov.matrix)))
        total = np.abs(cov.flows) + np.abs(np.diag(cov.flows))[:, None] + noise[:, None]
        normalized = np.divide(cov.flows, total, out=np.full((d, d), np.nan), where=total != 0.0)
    value, stderr, z, p = read_off(cov)
    return FlowMatrix(labels=panel.labels, value=value, stderr=stderr, z=z, p_asymptotic=p,
                      estimated=estimated, lag1_residual_autocorr=cov.lag1_residual_autocorr,
                      k=int(k), dt=panel.dt, n_eff=cov.n_eff, p_surrogate=p_surrogate,
                      normalized=normalized)
