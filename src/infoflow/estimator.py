"""Maximum-likelihood information-flow estimators for time-series panels.

The directed flow rate from series j to series i is estimated, under a
linear model with additive noise, by

    T[j->i] = (1/det C) * sum_m cof[j, m] * dcov_i[m] * C[i, j] / C[i, i]

where C is the sample covariance matrix, cof its cofactors, and dcov_i the
cross-covariances with the forward-differenced target. The bracketed sum is,
by Cramer's rule, exactly the least-squares coefficient of series j in the
regression of dX_i on all series, so the estimate can equivalently be read
as coefficient * correlation ratio. Flows are in nats per unit time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .covariance import CovarianceSet, build_covariance_set
from .errors import (
    DegenerateNormalizerError,
    InvalidPairError,
    SingularCovarianceError,
    UsageError,
)
from .panel import TimeSeriesPanel, forward_difference


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


@dataclass(frozen=True)
class SelfInfluenceEstimate:
    """Rate at which a component's own dynamics move its marginal entropy."""

    value: float
    target: int
    k: int
    n_eff: int


@dataclass(frozen=True, eq=False)
class LinearModelFit:
    """Least-squares fit of the differenced target on all series.

    ``coefficients[j]`` reproduces the Cramer's-rule value
    (1/det C) * sum_m cof[j, m] * dcov[m]. ``residual_variance`` is the mean
    squared residual on the derivative scale; ``noise_intensity`` is
    k*dt times that, the additive-noise magnitude g_ii of the fitted SDE.
    ``target_variance`` is the sample variance of the target over the window.
    ``lag1_residual_autocorr`` is taken from ``residuals`` once, when first
    read.
    """

    target: int
    intercept: float
    coefficients: np.ndarray
    residual_variance: float
    noise_intensity: float
    target_variance: float
    residuals: np.ndarray
    k: int
    n_eff: int

    @cached_property
    def lag1_residual_autocorr(self) -> float:
        e = self.residuals - self.residuals.mean()
        denom = float(e @ e)
        if denom == 0.0:
            return 0.0
        return float(e[:-1] @ e[1:] / denom)


def _covariance_for(panel, k, targets, cov):
    if cov is None:
        return build_covariance_set(panel, k, targets=targets)
    for i in targets:
        if i not in cov.deriv_cross:
            raise UsageError(f"covariance set lacks derivative cross terms for target {i}")
    return cov


def _require_invertible(cov: CovarianceSet) -> None:
    if cov.near_singular:
        raise SingularCovarianceError(
            f"covariance matrix is singular or near-singular (det={cov.det:.3e});"
            " refusing to estimate"
        )


def _coefficient(cov: CovarianceSet, source: int, target: int) -> float:
    dcov = cov.deriv_cross[target]
    return float(cov.cofactors[source] @ dcov / cov.det)


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
    source, target = int(source), int(target)
    if source == target:
        raise InvalidPairError(
            "source equals target; use estimate_self_influence for self loops"
        )
    cov = _covariance_for(panel, k, (target,), cov)
    _require_invertible(cov)
    C = cov.matrix
    if C[target, target] <= 0.0:
        raise SingularCovarianceError(f"target series {target} has zero variance")
    value = _coefficient(cov, source, target) * C[target, source] / C[target, target]
    return FlowEstimate(value=float(value), source=source, target=target, k=int(k), n_eff=cov.n_eff)


def estimate_self_influence(
    panel: TimeSeriesPanel,
    target: int,
    k: int = 1,
    *,
    cov: CovarianceSet | None = None,
) -> SelfInfluenceEstimate:
    """Self-influence rate of series ``target`` (cofactor row = target).

    For d = 1 this reduces to dcov/variance, the slope of the derivative on
    the series itself. Significant values mark self loops in a causal graph.
    """
    target = int(target)
    cov = _covariance_for(panel, k, (target,), cov)
    _require_invertible(cov)
    value = _coefficient(cov, target, target)
    return SelfInfluenceEstimate(value=value, target=target, k=int(k), n_eff=cov.n_eff)


def fit_linear_model(
    panel: TimeSeriesPanel,
    target: int,
    k: int = 1,
) -> LinearModelFit:
    """Least-squares fit of the differenced target on intercept plus all series.

    Runs over the same truncated window as the covariance pass, so the
    coefficients agree with the cofactor evaluation to round-off. This is
    the independent normal-equations route used to cross-check the
    cofactor estimator, and it feeds the asymptotic significance tests.
    """
    target = int(target)
    n_eff = panel.n - k
    dx = forward_difference(panel, target, k).values
    X = panel.values[:, :n_eff]
    design = np.empty((n_eff, panel.d + 1))
    design[:, 0] = 1.0
    design[:, 1:] = X.T
    beta, _, rank, _ = np.linalg.lstsq(design, dx, rcond=None)
    if rank < panel.d + 1:
        raise SingularCovarianceError(
            f"design matrix for target {target} is rank-deficient ({rank} < {panel.d + 1})"
        )
    residuals = dx - design @ beta
    residual_variance = float(residuals @ residuals / n_eff)
    # below double-precision resolution the fit is exact; snap to a clean zero
    # so degenerate inference is detected reliably downstream
    dx_scale = float(np.var(dx))
    if residual_variance < 1e-24 * dx_scale:
        residual_variance = 0.0
        residuals = np.zeros_like(residuals)
    target_variance = float(np.var(X[target], ddof=1))
    return LinearModelFit(
        target=target,
        intercept=float(beta[0]),
        coefficients=beta[1:],
        residual_variance=residual_variance,
        noise_intensity=float(k * panel.dt * residual_variance),
        target_variance=target_variance,
        residuals=residuals,
        k=int(k),
        n_eff=n_eff,
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

    ``flows[i][j]`` is the estimate for j -> i (None on the diagonal);
    ``self_influence[i]`` and ``self_reports[i]`` describe target i.
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
        for i in range(self.d):
            for j in range(self.d):
                if i != j:
                    yield self.flows[i][j]


def estimate_flow_matrix(
    panel: TimeSeriesPanel,
    k: int = 1,
    *,
    normalize: bool = False,
    surrogates: int = 0,
    seed: int | None = None,
    surrogate_method: str = "circular_shift",
    jobs: int = 1,
) -> FlowMatrix:
    """Estimate every ordered pair plus all self influences in one pass.

    Asymptotic significance is always attached; surrogate p values are added
    when ``surrogates`` >= 19. One covariance factorization is shared across
    all sources and targets.
    """
    from .significance import (
        asymptotic_significance,
        self_influence_significance,
        surrogate_significance,
    )

    cov = build_covariance_set(panel, k)
    _require_invertible(cov)
    d = panel.d

    surrogate_seeds = None
    if surrogates:
        root = np.random.SeedSequence(seed)
        children = root.spawn(d * d)
        surrogate_seeds = {
            (j, i): children[i * d + j] for i in range(d) for j in range(d) if i != j
        }

    rows = []
    selfs = []
    self_reports = []
    for i in range(d):
        fit = fit_linear_model(panel, i, k)
        self_est = estimate_self_influence(panel, i, k, cov=cov)
        selfs.append(self_est)
        self_reports.append(self_influence_significance(fit, cov, self_est))
        row = []
        for j in range(d):
            if j == i:
                row.append(None)
                continue
            est = estimate_flow(panel, j, i, k, cov=cov)
            report = asymptotic_significance(fit, cov, est)
            est = replace(
                est, stderr=report.stderr, p_value_asymptotic=report.p_asymptotic
            )
            if surrogates:
                surr = surrogate_significance(
                    panel,
                    j,
                    i,
                    k,
                    n_surrogates=surrogates,
                    seed=surrogate_seeds[(j, i)],
                    method=surrogate_method,
                    jobs=jobs,
                )
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
