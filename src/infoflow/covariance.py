"""The moment core: one pass over a panel gives every quantity the flow
estimators, fits and significance tests read, each as one array.

For a panel X and stride k the core holds C, the sample covariance of the
series, and G, their cross-covariances with the forward-differenced series
(column i for target i). The flow formula in ``estimator`` is written in
the cofactors of C; its cofactor sum is (C^-1 G)[j, i], so the core solves
for B = C^-1 G once for all targets, together with each target's residual
statistics. Everything is taken over one shared window, the
first n_eff = n - k samples of every series, so C and G line up
sample-for-sample.

A running-window analysis needs the same core for many windows of one
panel. Every moment the core reads is additive over sample segments, so
``window_cores`` takes the moments of [X; dX] once per segment, merges
them into each window's C and G, and reads every window off at once with
the same array functions as ``build_covariance_set``, its one-window case,
into one ``CovarianceSet`` with a leading axis over the windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError
from .panel import TimeSeriesPanel, _require_stride, forward_difference

# A covariance matrix whose correlation matrix has |det| below this (that is,
# |det C| below this multiple of the product of the variances) is treated as
# singular; estimation refuses rather than regularizes.
NEAR_SINGULAR_RTOL = 1e-12

# A window's residual variance is read off its moments, S_dXdX - B' S_XdX,
# which cancels as the fit's R^2 approaches 1: its relative error grew as
# about 1e-16 / (1 - R^2) on a near-deterministic panel. Where it is below
# this fraction of var(dX_i) the residuals are recomputed from the data,
# which keeps the standard errors within about 1e-13 of the sub-panel's and
# detects an exact zero as ``build_covariance_set`` does.
MOMENT_RESIDUAL_RTOL = 1e-3

# Elements per gather of segment moments in the window merge; bounds its
# memory at any step.
_GATHER_BUDGET = 1 << 18


@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Sample moments of one panel at one stride, and what follows from them.

    ``matrix`` is C and ``deriv`` is G (entry [j, i] is the covariance of
    series j with dX_i), both with the 1/(n_eff - 1) normalization.
    ``det_corr`` is the determinant of the correlation matrix of C, the
    margin the ``NEAR_SINGULAR_RTOL`` rule tests. ``n_eff`` is the shared
    window length n - k; ``k`` and ``panel`` are the stride and the panel
    the moments were taken from. When C is not near-singular,
    ``inverse`` is C^-1, column i of ``coefficients`` (B = C^-1 G) holds the
    slopes of the least-squares fit of dX_i on intercept plus all series,
    and ``residual_variance`` (mean squared residual) and
    ``lag1_residual_autocorr`` describe that fit's residuals.
    ``noise_intensity`` is k*dt times the residual variance, the
    additive-noise magnitude g_ii of the fitted SDE, and entry [i, j] of
    ``flows`` is the flow j -> i, B[j, i] C[i, j] / C[i, i], with the self
    influence B[i, i] on its diagonal. All six are None otherwise.

    A stack of window cores (``window_cores``) lists in ``windows`` the
    windows whose C passes the rule, and carries C, G, det_corr, B, C^-1,
    flows and residual variance with one leading entry per listed window;
    ``panel`` is the whole panel. It has no noise intensity or lag-1
    autocorrelation: a window reports flows only.
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
    residual_variance: np.ndarray | None = None
    lag1_residual_autocorr: np.ndarray | None = None
    noise_intensity: np.ndarray | None = None
    flows: np.ndarray | None = None
    windows: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.matrix.shape[-1]


def _window(panel: TimeSeriesPanel, k: int) -> int:
    """The shared window length n - k, checked against the stride and d."""
    _require_stride(k)
    n_eff = panel.n - k
    if n_eff < panel.d + 2:
        raise InsufficientDataError(
            f"need n - k >= d + 2 samples: n={panel.n}, k={k}, d={panel.d}"
        )
    return n_eff


def _stack(panel: TimeSeriesPanel, k: int, cols: int) -> np.ndarray:
    """[X; dX] over the first ``cols`` samples (2d x cols); row d + i is the
    ``forward_difference`` of series i."""
    d = panel.d
    Z = np.empty((2 * d, cols))
    Z[:d] = panel.values[:, :cols]
    for i in range(d):
        Z[d + i] = forward_difference(panel, i, k)[:cols]
    return Z


def _diagonal(A: np.ndarray) -> np.ndarray:
    """The diagonal of a square matrix, or of each in a stack of them."""
    return A.diagonal(0, -2, -1)


def _correlation_det(C: np.ndarray):
    """det C over the product of the variances, of C or of each in a stack,
    taken on the correlation matrix so that it does not underflow for tiny
    series; 0 when a variance is 0."""
    s = np.sqrt(_diagonal(C))
    s[s == 0.0] = np.inf  # zeroes that variance's row and column, so the determinant
    return np.linalg.det(C / s[..., None, :] / s[..., :, None]) + 0.0  # never -0.0


def _near_singular(det_corr):
    """The singularity rule on correlation-scale determinants, elementwise; NaN
    (0/0 from a zero variance) counts as singular."""
    return ~(np.abs(det_corr) >= NEAR_SINGULAR_RTOL)


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _fit(C: np.ndarray, G: np.ndarray):
    """B = C^-1 G, C^-1 and the flows of an invertible C, or of each in a
    stack of them on leading axes. Entry [i, j] of the flows is the flow
    j -> i, B[j, i] C[i, j] / C[i, i], with the self influence B[i, i] on
    the diagonal."""
    B = np.linalg.solve(C, G)
    flows = B.swapaxes(-1, -2) * C / _diagonal(C)[..., :, None]
    i = np.arange(C.shape[-1])
    flows[..., i, i] = B[..., i, i]  # the ratio form can miss B[i, i] by an ulp
    return B, np.linalg.inv(C), flows


def _residuals(Zc: np.ndarray, B: np.ndarray):
    """Residuals E = dX - B' X of every target on the centred stack
    Zc = [Xc; dXc], and their mean squares. A mean square below
    1e-24 var(dX_i) is snapped to an exact zero (``exact``), so that a
    perfect fit is detected reliably downstream."""
    d, n = B.shape[0], Zc.shape[1]
    Xc, dXc = Zc[:d], Zc[d:]
    E = B.T @ Xc
    np.subtract(dXc, E, out=E)
    residual_variance = _rowwise_dot(E, E) / n
    exact = residual_variance < 1e-24 * (_rowwise_dot(dXc, dXc) / n)
    residual_variance[exact] = 0.0
    return E, residual_variance, exact


def build_covariance_set(panel: TimeSeriesPanel, k: int = 1) -> CovarianceSet:
    """One moment pass shared by every estimator touching this panel.

    Centres the stack [X; dX] (2d x n_eff, dX the ``forward_difference`` of
    every series) in place and takes [C | G] from one product. The residuals
    of all targets, E = dX - B' X on the centred rows, come from one more
    product over the same stack: a residual variance below 1e-24 var(dX_i)
    is snapped to an exact zero, so that a perfect fit is detected reliably
    downstream.
    """
    n_eff = _window(panel, k)
    d = panel.d
    Z = _stack(panel, k, n_eff)
    Z -= Z.mean(axis=1)[:, None]

    moments = (Z[:d] @ Z.T) / (n_eff - 1)
    C = 0.5 * (moments[:, :d] + moments[:, :d].T)
    G = moments[:, d:]
    det_corr = float(_correlation_det(C))
    if _near_singular(det_corr):
        return CovarianceSet(matrix=C, deriv=G, det_corr=det_corr, n_eff=n_eff, k=int(k),
                             panel=panel, near_singular=True)

    B, inverse, flows = _fit(C, G)
    E, residual_variance, exact = _residuals(Z, B)
    # E has zero row means: the centred rows leave no intercept to fit
    denom = _rowwise_dot(E, E)
    lag1 = np.divide(_rowwise_dot(E[:, :-1], E[:, 1:]), denom,
                     out=np.zeros(d), where=~exact & (denom != 0.0))
    return CovarianceSet(
        matrix=C,
        deriv=G,
        det_corr=det_corr,
        n_eff=n_eff,
        k=int(k),
        panel=panel,
        near_singular=False,
        inverse=inverse,
        coefficients=B,
        residual_variance=residual_variance,
        lag1_residual_autocorr=lag1,
        noise_intensity=k * panel.dt * residual_variance,
        flows=flows,
    )


def _segment_moments(Z: np.ndarray, d: int, offset: int, length: int, step: int, count: int,
                     scatter: bool):
    """Means (count x 2d) of the segments Z[:, offset + m*step :][:, :length],
    m < count, and with ``scatter`` their centred scatter of the X rows
    against all rows (count x d x 2d) and of each dX row with itself
    (count x d)."""
    V = sliding_window_view(Z, length, axis=1)[:, offset::step][:, :count]
    means = V.mean(axis=2)
    if not scatter:
        return means.T, None, None
    Vc = (V - means[..., None]).transpose(1, 0, 2)
    return (means.T, np.matmul(Vc[:, :d], Vc.transpose(0, 2, 1)),
            np.einsum("mit,mit->mi", Vc[:, d:], Vc[:, d:]))


def _window_moments(Z: np.ndarray, d: int, n_eff: int, step: int, n_windows: int):
    """Centred scatter sums, X rows against all rows (W x d x 2d) and each
    dX row with itself (W x d), of the windows Z[:, w*step : w*step + n_eff],
    w < W = ``n_windows``.

    With n_eff = q*step + r, the window boundaries cut Z at every multiple
    of ``step`` and r past it, so each window is 2q + 1 consecutive
    segments (q of length ``step`` when r = 0; one when q = 0). Each
    segment's moments are taken once, and a window pools its segments
    b by the Chan-Golub-LeVeque update, M2 = sum M2_b + sum n_b (m_b - m)
    (m_b - m)', which does not cancel as raw sums do. The pooling gathers
    at most ``_GATHER_BUDGET`` elements at a time. Length-1 segments (step
    1) have no scatter of their own.
    """
    q, r = divmod(n_eff, step)
    kinds = ([(0, r, n_windows + q)] if r else []) + ([(r, step - r, n_windows + q - 1)] if q else [])
    scatter = step > 1
    parts = [_segment_moments(Z, d, offset, length, step, count, scatter)
             for offset, length, count in kinds]
    per_step = len(kinds)  # segments per step; window w starts at segment per_step * w
    span = per_step * q + (1 if r else 0)  # segments per window
    weights = np.resize([float(length) for _, length, _ in kinds], span)

    def in_sample_order(field):
        arrays = [part[field] for part in parts]
        out = np.empty((sum(map(len, arrays)),) + arrays[0].shape[1:])
        for kind, array in enumerate(arrays):
            out[kind::per_step] = array
        return out

    seg_means = in_sample_order(0)
    seg_xz, seg_dd = (in_sample_order(1), in_sample_order(2)) if scatter else (None, None)

    xz = np.zeros((n_windows, d, 2 * d))
    dd = np.zeros((n_windows, d))
    chunk = max(1, _GATHER_BUDGET // (span * (2 * d * (d + 3) + d)))
    for lo in range(0, n_windows, chunk):
        hi = min(n_windows, lo + chunk)
        idx = per_step * np.arange(lo, hi)[:, None] + np.arange(span)
        if scatter:
            xz[lo:hi] = seg_xz[idx].sum(axis=1)
            dd[lo:hi] = seg_dd[idx].sum(axis=1)
        if span == 1:  # the window is its segment; pooling would move the mean by an ulp
            continue
        M = seg_means[idx]
        D = M - (weights @ M / n_eff)[:, None]
        Dw = D * weights[:, None]
        xz[lo:hi] += Dw[..., :d].swapaxes(1, 2) @ D
        dd[lo:hi] += np.einsum("wbi,wbi->wi", Dw[..., d:], D[..., d:])
    return xz, dd


def window_cores(panel: TimeSeriesPanel, k: int, window_length: int, step: int,
                 n_windows: int) -> CovarianceSet:
    """The cores of the windows w*step + [0, window_length), w < ``n_windows``,
    as one stacked ``CovarianceSet`` over the windows that pass the
    ``NEAR_SINGULAR_RTOL`` rule, from one pass of segment moments
    (``_window_moments``).

    The flows come from one batched solve over the good windows. Each
    target's residual variance is read off the moments, except where it is
    below ``MOMENT_RESIDUAL_RTOL`` var(dX): there that window's residuals
    are recomputed from the data as in ``build_covariance_set``. Windows
    with n_eff = window_length - k <= d + 2 samples, too few for the core
    and its inference, raise ``InsufficientDataError``.
    """
    _require_stride(k)
    d, n_eff = panel.d, window_length - k
    if n_eff <= d + 2:
        raise InsufficientDataError(
            f"need window length - k > d + 2 samples: window={window_length}, k={k}, d={d}"
        )
    Z = _stack(panel, k, (n_windows - 1) * step + n_eff)
    xz, dd = _window_moments(Z, d, n_eff, step, n_windows)
    moments = xz / (n_eff - 1)
    C = 0.5 * (moments[..., :d] + moments[..., :d].swapaxes(1, 2))
    det_corr = _correlation_det(C)
    windows = np.flatnonzero(~_near_singular(det_corr))
    C, G, dd = C[windows], moments[windows, :, d:], dd[windows]
    B, inverse, flows = _fit(C, G)
    # E'E = S_dXdX - B' S_XdX per target
    residual_variance = (dd - (n_eff - 1) * np.einsum("wji,wji->wi", G, B)) / n_eff
    for g in np.flatnonzero((residual_variance <= MOMENT_RESIDUAL_RTOL * dd / n_eff).any(axis=1)):
        start = step * windows[g]
        Zw = Z[:, start:start + n_eff].copy()
        Zw -= Zw.mean(axis=1)[:, None]
        residual_variance[g] = _residuals(Zw, B[g])[1]
    return CovarianceSet(matrix=C, deriv=G, det_corr=det_corr[windows], n_eff=n_eff, k=int(k), panel=panel,
                         near_singular=False, inverse=inverse, coefficients=B,
                         residual_variance=residual_variance, flows=flows, windows=windows)
