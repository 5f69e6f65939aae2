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

from .covariance import build_covariance_set
from .errors import SingularCovarianceError
from .panel import TimeSeriesPanel
from .significance import (
    SERIAL_CORRELATION_LIMIT,
    _require_method,
    _require_surrogates,
    _resolve_pairs,
    _surrogate_p_values,
    asymptotic_inference,
)


@dataclass(frozen=True)
class FlowEstimate:
    """One directed flow rate with whatever uncertainty has been attached."""

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


@dataclass(frozen=True)
class SelfInfluenceEstimate:
    """Rate at which a component's own dynamics move its marginal entropy,
    with whatever uncertainty has been attached.

    ``lag1_residual_autocorr`` describes the residuals of the target's fit,
    which every flow into the target shares.
    """

    value: float
    target: int
    k: int
    n_eff: int
    stderr: float | None = None
    p_value_asymptotic: float | None = None
    z_score: float | None = None
    lag1_residual_autocorr: float | None = None

    @property
    def serial_correlation_flag(self) -> bool:
        r = self.lag1_residual_autocorr
        return r is not None and abs(r) > SERIAL_CORRELATION_LIMIT


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """All pairwise flows of a panel plus per-target self influences.

    ``flows[i][j]`` is the estimate for j -> i (None on the diagonal and
    for pairs not estimated); ``self_influence[i]`` is target i's self
    influence with its inference and the residual autocorrelation of its fit.
    """

    labels: tuple[str, ...]
    flows: tuple
    self_influence: tuple
    k: int
    dt: float
    n_eff: int

    @property
    def d(self) -> int:
        return len(self.labels)

    def iter_flows(self):
        """The estimated flows, target by target."""
        for row in self.flows:
            yield from (est for est in row if est is not None)


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

    ``pairs`` lists the (source, target) index pairs to estimate, all
    ordered pairs by default; the flows of the others are None. Asymptotic
    significance is always attached; surrogate p values are added when
    ``surrogates`` >= 19, each pair drawing from its own child of ``seed``
    (an int, None or a SeedSequence; ``significance._surrogate_p_values``). With ``normalize``, a flow
    is divided by |flow| + |self influence| + |noise intensity / (2 C_ii)|
    of its target; a zero normalizer leaves ``normalized`` None. Every
    number is read off the one moment core (``cov.flows`` and
    ``asymptotic_inference``) and only packed here. This is the one place
    that attaches inference to a flow.
    """
    d = panel.d
    wanted = None if pairs is None else set(_resolve_pairs(pairs, d))  # None: every ordered pair
    if surrogates:
        _require_surrogates(surrogates)
        _require_method(surrogate_method)
    cov = build_covariance_set(panel, k)
    if cov.near_singular:
        raise SingularCovarianceError(
            "covariance matrix is singular or near-singular"
            f" (correlation det={cov.det_corr:.3e}); refusing to estimate"
        )
    estimated = [(j, i) for i in range(d) for j in range(d)
                 if j != i and (wanted is None or (j, i) in wanted)]
    p_surrogate = None
    if surrogates:
        p_surrogate = [_surrogate_p_values(cov, estimated, n_surrogates=surrogates, seed=seed,
                                           method=surrogate_method)]
    stderr, z, p = asymptotic_inference(cov)
    normalized = None
    if normalize:
        noise = np.abs(cov.noise_intensity / (2.0 * np.diag(cov.matrix)))
        total = np.abs(cov.flows) + np.abs(np.diag(cov.flows))[:, None] + noise[:, None]
        nonzero = total != 0.0
        ratio = np.divide(cov.flows, total, out=np.zeros((d, d)), where=nonzero)
        normalized = [np.where(nonzero, ratio, None).tolist()]
    k, n_eff = int(k), cov.n_eff
    values, stderr, z, p = (a.tolist() for a in (cov.flows, stderr, z, p))
    rows = [[None] * d for _ in range(d)]
    for est in pack_flows(estimated, k, n_eff, [values], [stderr], [z], [p],
                          normalized=normalized, p_surrogate=p_surrogate)[0]:
        rows[est.target][est.source] = est
    selfs = tuple([
        SelfInfluenceEstimate(value=values[i][i], target=i, k=k, n_eff=n_eff, stderr=stderr[i][i],
                              p_value_asymptotic=p[i][i], z_score=z[i][i], lag1_residual_autocorr=lag1)
        for i, lag1 in enumerate(cov.lag1_residual_autocorr.tolist())
    ])
    return FlowMatrix(
        labels=panel.labels,
        flows=tuple(map(tuple, rows)),
        self_influence=selfs,
        k=k,
        dt=panel.dt,
        n_eff=n_eff,
    )


def pack_flows(pairs, k: int, n_eff: int, values, stderr, z, p, *, normalized=None,
               p_surrogate=None) -> list[list[FlowEstimate]]:
    """The ``FlowEstimate`` of each (source, target) in ``pairs``, for each
    core of a stack: ``values``, ``stderr``, ``z``, ``p`` and the optional
    ``normalized`` are W x d x d nested lists (``ndarray.tolist``) in the
    [target, source] layout of ``CovarianceSet.flows``, and ``p_surrogate``
    is W lists aligned with ``pairs``. Returns W lists aligned with
    ``pairs``."""
    return [
        [FlowEstimate(value=value[i][j], source=j, target=i, k=k, n_eff=n_eff, stderr=se[i][j],
                      p_value_asymptotic=pv[i][j],
                      p_value_surrogate=None if p_surrogate is None else p_surrogate[w][c],
                      normalized=None if normalized is None else normalized[w][i][j],
                      z_score=zs[i][j])
         for c, (j, i) in enumerate(pairs)]
        for w, (value, se, zs, pv) in enumerate(zip(values, stderr, z, p))
    ]
