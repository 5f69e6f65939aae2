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
panel. Every moment the core reads pools over sample segments, and a
window is whole steps plus the head of one more, so ``window_cores`` takes
the moments of [X; dX] once per step and head, pools each window's C and G
in O(log(window/step)) merges, and reads every window off at once with the
same array functions as ``build_covariance_set``, its one-window case,
into one ``CovarianceSet`` with a leading axis over the windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, SingularCovarianceError
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

@dataclass(frozen=True, eq=False)
class CovarianceSet:
    """Sample moments of one panel at one stride, and the fit they give.

    ``matrix`` is C and ``deriv`` is G (entry [j, i] is the covariance of
    series j with dX_i), both with the 1/(n_eff - 1) normalization.
    ``det_corr`` (a float, or an array for a window stack) is the
    determinant of the correlation matrix of C, the margin the
    ``NEAR_SINGULAR_RTOL`` rule tests. ``n_eff`` is the shared window length
    n - k. ``inverse`` is C^-1, column i of ``coefficients`` (B = C^-1 G)
    holds the slopes of the least-squares fit of dX_i on intercept plus all
    series, and ``residual_variance`` (mean squared residual) and
    ``lag1_residual_autocorr`` describe that fit's residuals.
    ``noise_intensity`` is k*dt times the residual variance, the
    additive-noise magnitude g_ii of the fitted SDE, and entry [i, j] of
    ``flows`` is the flow j -> i, B[j, i] C[i, j] / C[i, i], with the self
    influence B[i, i] on its diagonal. ``stack`` is the centred [X; dX]
    (2d x n_eff, read-only) the moments were taken from. Every set is a
    whole fit: ``build_covariance_set`` refuses a panel that has none.

    A stack of window cores (``window_cores``) lists in ``windows`` the
    windows whose C passes the rule, and carries C, G, det_corr, B, C^-1,
    flows and residual variance with one leading entry per listed window.
    It has no noise intensity, lag-1 autocorrelation or stack: a window
    reports flows only.
    """

    matrix: np.ndarray
    deriv: np.ndarray
    det_corr: float | np.ndarray
    n_eff: int
    inverse: np.ndarray
    coefficients: np.ndarray
    residual_variance: np.ndarray
    flows: np.ndarray
    lag1_residual_autocorr: np.ndarray | None = None
    noise_intensity: np.ndarray | None = None
    stack: np.ndarray | None = None
    windows: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.matrix.shape[-1]


def _window(n: int, k: int, d: int) -> int:
    """The shared window length n - k of n samples of d series, checked
    against the stride and against d: the fit and its inference need
    n - k > d + 2 samples."""
    _require_stride(k)
    if n - k <= d + 2:
        raise InsufficientDataError(f"need n - k > d + 2 samples: n={n}, k={k}, d={d}")
    return n - k


def _stack(panel: TimeSeriesPanel, k: int, cols: int) -> np.ndarray:
    """[X; dX] over the first ``cols`` samples (2d x cols); row d + i is the
    ``forward_difference`` of series i."""
    d = panel.d
    Z = np.empty((2 * d, cols))
    Z[:d] = panel.values[:, :cols]
    # public on purpose: the only panel span of a run that reads no CSV; a traced benchmark run needs one
    Z[d:] = forward_difference(panel, slice(None), k)[:, :cols]
    return Z


def _diagonal(A: np.ndarray) -> np.ndarray:
    """The diagonal of a square matrix, or of each in a stack of them."""
    return A.diagonal(0, -2, -1)


def _correlation_det(C: np.ndarray, floor):
    """det C over the product of the variances, of C or of each in a stack,
    taken on the correlation matrix so that it does not underflow for tiny
    series; 0 when a standard deviation is at or below eps ``floor`` (per
    series, or per window and series). A mean of n samples of magnitude m is
    off by at most n eps m, all that centring by it leaves of a constant, so
    a series' floor is n m."""
    s = np.sqrt(_diagonal(C))
    s[s <= np.finfo(float).eps * floor] = np.inf  # zeroes that row and column, so the determinant
    return np.linalg.det(C / s[..., None, :] / s[..., :, None]) + 0.0  # never -0.0


def _singular(det_corr):
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
    Zc = [Xc; dXc], their sums of squares E.E and their mean squares. A
    mean square below 1e-24 var(dX_i) is snapped to an exact zero
    (``exact``), so that a perfect fit is detected reliably downstream."""
    d, n = B.shape[0], Zc.shape[1]
    Xc, dXc = Zc[:d], Zc[d:]
    E = B.T @ Xc
    np.subtract(dXc, E, out=E)
    squares = _rowwise_dot(E, E)
    residual_variance = squares / n
    exact = residual_variance < 1e-24 * (_rowwise_dot(dXc, dXc) / n)
    residual_variance[exact] = 0.0
    return E, squares, residual_variance, exact


def build_covariance_set(panel: TimeSeriesPanel, k: int = 1) -> CovarianceSet:
    """One moment pass shared by every estimator touching this panel, and
    the one place that decides whether the panel has a fit.

    Centres the stack [X; dX] (2d x n_eff, dX the ``forward_difference`` of
    every series) in place and takes [C | G] from one product. The residuals
    of all targets (``_residuals``) come from one more product over the same
    stack, which the set keeps for the surrogates. Raises
    ``InsufficientDataError`` when n - k <= d + 2 and
    ``SingularCovarianceError`` when C fails the ``NEAR_SINGULAR_RTOL`` rule.
    """
    d = panel.d
    n_eff = _window(panel.n, k, d)
    Z = _stack(panel, k, n_eff)
    mean = Z.mean(axis=1)
    Z -= mean[:, None]
    Z.flags.writeable = False

    moments = (Z[:d] @ Z.T) / (n_eff - 1)
    C = 0.5 * (moments[:, :d] + moments[:, :d].T)
    G = moments[:, d:]
    det_corr = float(_correlation_det(C, n_eff * np.abs(mean[:d])))
    if _singular(det_corr):
        raise SingularCovarianceError(
            "covariance matrix is singular or near-singular"
            f" (correlation det={det_corr:.3e}); refusing to estimate"
        )

    B, inverse, flows = _fit(C, G)
    E, squares, residual_variance, exact = _residuals(Z, B)
    # E has zero row means: the centred rows leave no intercept to fit
    lag1 = np.divide(_rowwise_dot(E[:, :-1], E[:, 1:]), squares,
                     out=np.zeros(d), where=~exact & (squares != 0.0))
    return CovarianceSet(
        matrix=C,
        deriv=G,
        det_corr=det_corr,
        n_eff=n_eff,
        inverse=inverse,
        coefficients=B,
        residual_variance=residual_variance,
        flows=flows,
        lag1_residual_autocorr=lag1,
        noise_intensity=k * panel.dt * residual_variance,
        stack=Z,
    )


def _segment_moments(Z: np.ndarray, d: int, offset: int, length: int, step: int, count: int):
    """The moments of the segments Z[:, offset + m*step :][:, :length],
    m < count: their length, the centred scatter of the X rows against all
    rows (count x d x 2d) and of each dX row with itself (count x d), and
    their means (count x 2d). One sample's centred scatter is exactly 0."""
    V = sliding_window_view(Z, length, axis=1)[:, offset::step][:, :count]
    means = V.mean(axis=2)
    Vc = (V - means[..., None]).transpose(1, 0, 2)
    return (length, np.matmul(Vc[:, :d], Vc.transpose(0, 2, 1)),
            np.einsum("mit,mit->mi", Vc[:, d:], Vc[:, d:]), means.T)


def _merge(a, b):
    """The moments of two runs of samples pooled into one, from the moments
    (``_segment_moments``) of each, by the Chan-Golub-LeVeque update
    M2 = M2_a + M2_b + n_a n_b / n (m_b - m_a)(m_b - m_a)', which does not
    cancel as raw sums do."""
    n_a, xz_a, dd_a, m_a = a
    n_b, xz_b, dd_b, m_b = b
    n, d = n_a + n_b, dd_a.shape[-1]
    D = m_b - m_a
    f = n_a * n_b / n
    return (n, xz_a + xz_b + f * D[:, :d, None] * D[:, None, :],
            dd_a + dd_b + f * D[:, d:] ** 2, m_a + (n_b / n) * D)


def _rows(moments, start, stop):
    """The moments of the segments start:stop of a moment set."""
    length, *arrays = moments
    return (length, *(a[start:stop] for a in arrays))


def _window_moments(Z: np.ndarray, d: int, n_eff: int, step: int, n_windows: int):
    """Centred scatter sums, X rows against all rows (W x d x 2d) and each
    dX row with itself (W x d), and the means (W x 2d) of the windows
    Z[:, w*step : w*step + n_eff], w < W = ``n_windows``.

    With n_eff = q*step + r, window w is the q whole steps w, ..., w + q - 1
    of ``step`` samples and the head, the first r samples, of step w + q.
    The moments of every whole step are taken once, and level l of a sparse
    table holds those of every run of 2^l whole steps, each pooled from two
    runs of level l - 1 (``_merge``). A window pools its head with the runs
    that the binary digits of q name, lowest first: O(log q) merges, each
    one slice over all windows. A window of one segment is never merged, so
    its moments are its segment's.
    """
    q, r = divmod(n_eff, step)
    pooled = _segment_moments(Z, d, q * step, r, step, n_windows) if r else None
    if q:
        runs = _segment_moments(Z, d, 0, step, step, n_windows + q - 1)
    for level in range(q.bit_length()):
        span = 1 << level  # steps per run
        if level:  # each run pools two runs of the level below
            runs = _merge(_rows(runs, 0, -(span // 2)), _rows(runs, span // 2, None))
        if q & span:  # the run that follows those of q's lower digits
            run = _rows(runs, q % span, q % span + n_windows)
            pooled = run if pooled is None else _merge(pooled, run)
            del run  # it would keep this level alive while the next is built
    return pooled[1:]


def window_cores(panel: TimeSeriesPanel, k: int, window_length: int, step: int,
                 n_windows: int) -> CovarianceSet:
    """The cores of the windows w*step + [0, window_length), w < ``n_windows``,
    as one stacked ``CovarianceSet`` over the windows that pass the
    ``NEAR_SINGULAR_RTOL`` rule, each pooled from step and head moments in
    O(log(window/step)) merges (``_window_moments``). Where windows are
    pooled from several segments (step < n_eff) the stack is first centred
    by its own mean, so that segment means carry no series' offset; that
    centres a window twice, so its constant-series floor adds the
    magnitudes of both means. A window that is one segment is centred once,
    by its own mean, exactly as ``build_covariance_set`` centres its
    sub-panel, so its C and G are the sub-panel's bit for bit.

    The flows come from one batched solve over the good windows. Each
    target's residual variance is read off the moments, except where it is
    below ``MOMENT_RESIDUAL_RTOL`` var(dX): there that window's residuals
    are recomputed from the data as in ``build_covariance_set``. Windows
    with n_eff = window_length - k <= d + 2 samples raise
    ``InsufficientDataError``, as that function does.
    """
    d = panel.d
    n_eff = _window(window_length, k, d)
    Z = _stack(panel, k, (n_windows - 1) * step + n_eff)
    offset = np.zeros(2 * d)
    if step < n_eff:  # pooled windows; a window that is one segment is centred once
        offset = Z.mean(axis=1)
        Z -= offset[:, None]
    xz, dd, means = _window_moments(Z, d, n_eff, step, n_windows)
    moments = xz / (n_eff - 1)
    C = 0.5 * (moments[..., :d] + moments[..., :d].swapaxes(1, 2))
    det_corr = _correlation_det(C, n_eff * (np.abs(offset[:d]) + np.abs(means[:, :d])))
    windows = np.flatnonzero(~_singular(det_corr))
    C, G, dd = C[windows], moments[windows, :, d:], dd[windows]
    B, inverse, flows = _fit(C, G)
    # E'E = S_dXdX - B' S_XdX per target
    residual_variance = (dd - (n_eff - 1) * np.einsum("wji,wji->wi", G, B)) / n_eff
    for g in np.flatnonzero((residual_variance <= MOMENT_RESIDUAL_RTOL * dd / n_eff).any(axis=1)):
        start = step * windows[g]
        Zw = Z[:, start:start + n_eff].copy()
        Zw -= Zw.mean(axis=1)[:, None]
        residual_variance[g] = _residuals(Zw, B[g])[2]
    return CovarianceSet(matrix=C, deriv=G, det_corr=det_corr[windows], n_eff=n_eff, inverse=inverse,
                         coefficients=B, residual_variance=residual_variance, flows=flows, windows=windows)
