"""The moment core: one pass over a panel gives every quantity the flow
estimators, fits and significance tests read, each as one array.

For a panel X and stride k the core holds C, the sample covariance of the
series, and G, their cross-covariances with the forward-differenced series
(column i for target i). The flow formula in ``estimator`` is written in
the cofactors of C; its cofactor sum is (C^-1 G)[j, i], so the core solves
for B = C^-1 G once for all targets, together with each target's intercept
and residual statistics. Everything is taken over one shared window, the
first n_eff = n - k samples of every series, so C and G line up
sample-for-sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidStrideError
from .panel import TimeSeriesPanel, forward_difference

# A covariance matrix whose correlation matrix has |det| below this (that is,
# |det C| below this multiple of the product of the variances) is treated as
# singular; estimation refuses rather than regularizes.
NEAR_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Sample moments of one panel at one stride, and what follows from them.

    ``matrix`` is C and ``deriv`` is G (entry [j, i] is the covariance of
    series j with dX_i), both with the 1/(n_eff - 1) normalization.
    ``det_corr`` is the determinant of the correlation matrix of C, the
    margin the ``NEAR_SINGULAR_RTOL`` rule tests. ``n_eff`` is the shared
    window length n - k; ``k`` and ``panel`` are the stride and the panel
    the moments were taken from. When C is not near-singular,
    ``inverse`` is C^-1, column i of ``coefficients`` (B = C^-1 G) and entry
    i of ``intercepts`` are the least-squares fit of dX_i on intercept plus
    all series, and ``residual_variance`` (mean squared residual) and
    ``lag1_residual_autocorr`` describe that fit's residuals.
    ``noise_intensity`` is k*dt times the residual variance, the
    additive-noise magnitude g_ii of the fitted SDE, and entry [i, j] of
    ``flows`` is the flow j -> i, B[j, i] C[i, j] / C[i, i], with the self
    influence B[i, i] on its diagonal. All seven are None otherwise.
    """

    matrix: np.ndarray
    deriv: np.ndarray
    det_corr: float
    n_eff: int
    k: int
    panel: TimeSeriesPanel
    near_singular: bool
    inverse: np.ndarray | None = None
    coefficients: np.ndarray | None = None
    intercepts: np.ndarray | None = None
    residual_variance: np.ndarray | None = None
    lag1_residual_autocorr: np.ndarray | None = None
    noise_intensity: np.ndarray | None = None
    flows: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def _window(panel: TimeSeriesPanel, k: int) -> np.ndarray:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidStrideError(f"stride k must be a positive integer, got {k!r}")
    n_eff = panel.n - k
    if n_eff < panel.d + 2:
        raise InsufficientDataError(
            f"need n - k >= d + 2 samples: n={panel.n}, k={k}, d={panel.d}"
        )
    return panel.values[:, :n_eff]


def _correlation_det(C: np.ndarray) -> float:
    """det C over the product of the variances, taken on the correlation matrix
    so that it does not underflow for tiny series; 0 when a variance is 0."""
    s = np.sqrt(np.diag(C))
    return float(np.linalg.det(C / s / s[:, None])) if (s > 0.0).all() else 0.0


def _near_singular(det_corr):
    """The singularity rule on correlation-scale determinants, elementwise; NaN
    (0/0 from a zero variance) counts as singular."""
    return ~(np.abs(det_corr) >= NEAR_SINGULAR_RTOL)


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def build_covariance_set(panel: TimeSeriesPanel, k: int = 1) -> CovarianceSet:
    """One moment pass shared by every estimator touching this panel.

    Centres the stack [X; dX] (2d x n_eff, dX the ``forward_difference`` of
    every series) in place and takes [C | G] from one product. The residuals
    of all targets, E = dX - B' X on the centred rows, come from one more
    product over the same stack: a residual variance below 1e-24 var(dX_i)
    is snapped to an exact zero, so that a perfect fit is detected reliably
    downstream.
    """
    X = _window(panel, k)
    d, n_eff = X.shape
    Z = np.empty((2 * d, n_eff))
    Z[:d] = X
    for i in range(d):
        Z[d + i] = forward_difference(panel, i, k)
    means = Z.mean(axis=1)
    Z -= means[:, None]
    Xc, dXc = Z[:d], Z[d:]

    moments = (Xc @ Z.T) / (n_eff - 1)
    C = 0.5 * (moments[:, :d] + moments[:, :d].T)
    G = moments[:, d:]
    det_corr = _correlation_det(C)
    if _near_singular(det_corr):
        return CovarianceSet(matrix=C, deriv=G, det_corr=det_corr, n_eff=n_eff, k=int(k),
                             panel=panel, near_singular=True)

    B = np.linalg.solve(C, G)
    E = B.T @ Xc
    np.subtract(dXc, E, out=E)
    residual_variance = _rowwise_dot(E, E) / n_eff
    exact = residual_variance < 1e-24 * (_rowwise_dot(dXc, dXc) / n_eff)
    residual_variance[exact] = 0.0
    # E has zero row means: the centred rows leave no intercept to fit
    denom = _rowwise_dot(E, E)
    lag1 = np.divide(_rowwise_dot(E[:, :-1], E[:, 1:]), denom,
                     out=np.zeros(d), where=~exact & (denom != 0.0))
    flows = B.T * C / np.diag(C)[:, None]
    np.fill_diagonal(flows, np.diag(B))  # the ratio form can miss B[i, i] by an ulp
    return CovarianceSet(
        matrix=C,
        deriv=G,
        det_corr=det_corr,
        n_eff=n_eff,
        k=int(k),
        panel=panel,
        near_singular=False,
        inverse=np.linalg.inv(C),
        coefficients=B,
        intercepts=means[d:] - B.T @ means[:d],
        residual_variance=residual_variance,
        lag1_residual_autocorr=lag1,
        noise_intensity=k * panel.dt * residual_variance,
        flows=flows,
    )
