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

from dataclasses import dataclass, replace

import numpy as np

from .covariance import CovarianceSet, build_covariance_set
from .errors import (
    DegenerateNormalizerError,
    InvalidPairError,
    SingularCovarianceError,
    UsageError,
)
from .panel import TimeSeriesPanel


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
    """Rate at which a component's own dynamics move its marginal entropy."""

    value: float
    target: int
    k: int
    n_eff: int


@dataclass(frozen=True, eq=False)
class LinearModelFit:
    """Least-squares fit of the differenced target on intercept plus all series.

    ``coefficients[j]`` is (C^-1 G)[j, target]. ``residual_variance`` is the
    mean squared residual on the derivative scale; ``noise_intensity`` is
    k*dt times that, the additive-noise magnitude g_ii of the fitted SDE.
    ``target_variance`` is the sample variance of the target over the window
    and ``lag1_residual_autocorr`` the lag-1 autocorrelation of the residuals.
    """

    target: int
    intercept: float
    coefficients: np.ndarray
    residual_variance: float
    noise_intensity: float
    target_variance: float
    lag1_residual_autocorr: float
    k: int
    n_eff: int


def _invertible_covariance(panel, k, cov: CovarianceSet | None) -> CovarianceSet:
    if cov is None:
        cov = build_covariance_set(panel, k)
    elif cov.panel is not panel or cov.k != k:
        raise UsageError(f"cov was built from another panel or at another stride (k={cov.k}, not {k})")
    if cov.near_singular:
        raise SingularCovarianceError(
            "covariance matrix is singular or near-singular"
            f" (correlation det={cov.det_corr:.3e}); refusing to estimate"
        )
    return cov


def _spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """The first ``n`` children of ``seed``: an int, None or a SeedSequence.

    ``spawn`` advances the sequence it is called on, so a SeedSequence is
    rebuilt first: the same object passed twice gives the same children.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(n)


def estimate_flow(
    panel: TimeSeriesPanel,
    source: int,
    target: int,
    k: int = 1,
    *,
    cov: CovarianceSet | None = None,
) -> FlowEstimate:
    """Flow rate from series ``source`` into series ``target``.

    Zero sample covariance between the pair forces an exact zero: in the
    linear setting causation implies correlation. Pass a prebuilt ``cov``
    to share one covariance pass across several estimates.
    """
    # range() maps negative indices and raises IndexError out of range
    source, target = range(panel.d)[source], range(panel.d)[target]
    if source == target:
        raise InvalidPairError(
            "source equals target; use estimate_self_influence for self loops"
        )
    cov = _invertible_covariance(panel, k, cov)
    C = cov.matrix
    value = cov.coefficients[source, target] * C[target, source] / C[target, target]
    return FlowEstimate(value=float(value), source=source, target=target, k=int(k), n_eff=cov.n_eff)


def estimate_self_influence(
    panel: TimeSeriesPanel,
    target: int,
    k: int = 1,
    *,
    cov: CovarianceSet | None = None,
) -> SelfInfluenceEstimate:
    """Self-influence rate of series ``target``: (C^-1 G)[target, target].

    For d = 1 this reduces to dcov/variance, the slope of the derivative on
    the series itself. Significant values mark self loops in a causal graph.
    """
    target = range(panel.d)[target]
    cov = _invertible_covariance(panel, k, cov)
    value = float(cov.coefficients[target, target])
    return SelfInfluenceEstimate(value=value, target=target, k=int(k), n_eff=cov.n_eff)


def fit_linear_model(
    panel: TimeSeriesPanel,
    target: int,
    k: int = 1,
    *,
    cov: CovarianceSet | None = None,
) -> LinearModelFit:
    """Least-squares fit of the differenced target on intercept plus all series.

    Read off the same moments as the flow estimates, so coefficients and
    flows agree exactly; it feeds the asymptotic significance tests. Pass a
    prebuilt ``cov`` to share one covariance pass.
    """
    target = range(panel.d)[target]
    cov = _invertible_covariance(panel, k, cov)
    residual_variance = float(cov.residual_variance[target])
    return LinearModelFit(
        target=target,
        intercept=float(cov.intercepts[target]),
        coefficients=cov.coefficients[:, target],
        residual_variance=residual_variance,
        noise_intensity=float(k * panel.dt * residual_variance),
        target_variance=float(cov.matrix[target, target]),
        lag1_residual_autocorr=float(cov.lag1_residual_autocorr[target]),
        k=int(k),
        n_eff=cov.n_eff,
    )


def normalize_flow(
    flow: FlowEstimate,
    self_influence: SelfInfluenceEstimate,
    fit: LinearModelFit,
) -> float:
    """Relative importance of a flow, in [-1, 1].

    The flow is divided by the total magnitude of flow, self-influence, and
    the noise contribution g_ii / (2 C_ii) to the target's entropy budget;
    contributions of the remaining sources are not included.
    """
    if not (flow.target == self_influence.target == fit.target):
        raise UsageError("flow, self influence and fit must share one target")
    if not (flow.k == self_influence.k == fit.k):
        raise UsageError("flow, self influence and fit must share one stride k")
    if fit.target_variance <= 0.0:
        raise DegenerateNormalizerError("target variance is zero")
    noise_rate = fit.noise_intensity / (2.0 * fit.target_variance)
    z = abs(flow.value) + abs(self_influence.value) + abs(noise_rate)
    if z == 0.0:
        raise DegenerateNormalizerError(
            "flow, self influence and noise contributions are all zero"
        )
    return flow.value / z


@dataclass(frozen=True, eq=False)
class FlowMatrix:
    """All pairwise flows of a panel plus per-target self influences.

    ``flows[i][j]`` is the estimate for j -> i (None on the diagonal and
    for pairs not estimated); ``self_influence[i]`` and ``self_reports[i]``
    describe target i.
    """

    labels: tuple[str, ...]
    flows: tuple
    self_influence: tuple
    self_reports: tuple
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
    ``surrogates`` >= 19, pair j -> i drawing from child i * d + j of
    ``seed`` (an int, None or a SeedSequence). A degenerate normalizer
    leaves ``normalized`` None. One covariance factorization is shared
    across all sources and targets. This is the one place that attaches
    inference to a flow.
    """
    from .significance import (
        asymptotic_significance,
        self_influence_significance,
        surrogate_significance,
    )

    d = panel.d
    wanted = None  # every ordered pair
    if pairs is not None:
        # range() maps negative indices and raises IndexError out of range
        wanted = {(range(d)[j], range(d)[i]) for j, i in pairs}
        if any(j == i for j, i in wanted):
            raise InvalidPairError("pairs must have source != target")
    cov = _invertible_covariance(panel, k, None)
    children = _spawn_seeds(seed, d * d) if surrogates else None

    rows = []
    selfs = []
    self_reports = []
    for i in range(d):
        fit = fit_linear_model(panel, i, k, cov=cov)
        self_est = estimate_self_influence(panel, i, k, cov=cov)
        selfs.append(self_est)
        self_reports.append(self_influence_significance(fit, cov, self_est))
        row = []
        for j in range(d):
            if j == i or (wanted is not None and (j, i) not in wanted):
                row.append(None)
                continue
            est = estimate_flow(panel, j, i, k, cov=cov)
            report = asymptotic_significance(fit, cov, est)
            est = replace(
                est,
                stderr=report.stderr,
                p_value_asymptotic=report.p_asymptotic,
                z_score=report.z_score,
            )
            if surrogates:
                surr = surrogate_significance(panel, j, i, k, n_surrogates=surrogates,
                                              seed=children[i * d + j], method=surrogate_method, cov=cov)
                est = replace(est, p_value_surrogate=surr.p_surrogate)
            if normalize:
                try:
                    est = replace(est, normalized=normalize_flow(est, self_est, fit))
                except DegenerateNormalizerError:
                    pass  # leave normalized absent rather than abort the matrix
            row.append(est)
        rows.append(tuple(row))

    return FlowMatrix(
        labels=panel.labels,
        flows=tuple(rows),
        self_influence=tuple(selfs),
        self_reports=tuple(self_reports),
        k=int(k),
        dt=panel.dt,
        n_eff=cov.n_eff,
    )
