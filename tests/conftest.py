"""Shared generators for randomized tests. Everything is seeded."""

import numpy as np
import pytest

from infoflow import LinearSDE, TimeSeriesPanel, surrogate_p_values


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_stable_system(rng, d, m=None, margin=0.5):
    """Random Hurwitz drift with stability margin, random diffusion."""
    if m is None:
        m = d
    A = rng.standard_normal((d, d)) / np.sqrt(d)
    shift = np.max(np.linalg.eigvals(A).real) + margin
    A = A - shift * np.eye(d)
    B = rng.standard_normal((d, m)) * 0.5
    return LinearSDE(f=np.zeros(d), A=A, B=B)


def random_spd(rng, d, eig_low=0.1, eig_high=10.0):
    """Random symmetric positive-definite matrix with bounded conditioning."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=d))
    return Q @ np.diag(eigs) @ Q.T


def random_panel(rng, d, n, dt=1.0):
    """Cross-correlated noise panel with well-conditioned covariance."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mix = Q @ np.diag(np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=d)))
    values = mix @ rng.standard_normal((d, n))
    labels = tuple(f"s{i}" for i in range(d))
    return TimeSeriesPanel(labels=labels, values=values, dt=dt)


def with_series(panel, j, new_values):
    """Copy of the panel with series ``j`` replaced."""
    values = panel.values.copy()
    values[j] = new_values
    return TimeSeriesPanel(panel.labels, values, panel.dt)


@pytest.fixture
def rng():
    return make_rng(20240817)


def lstsq_fit(panel, target, k):
    """Independent regression oracle: ``np.linalg.lstsq`` of the Euler forward
    difference of ``target`` on an intercept plus all series, over the first
    n - k samples. Returns (intercept, coefficients, residual variance as the
    mean squared residual, lag-1 autocorrelation of the centred residuals).
    """
    n_eff = panel.n - k
    x = panel.values
    dx = (x[target, k:] - x[target, :n_eff]) / (k * panel.dt)
    design = np.column_stack([np.ones(n_eff), x[:, :n_eff].T])
    beta = np.linalg.lstsq(design, dx, rcond=None)[0]
    resid = dx - design @ beta
    e = resid - resid.mean()
    return beta[0], beta[1:], float(resid @ resid / n_eff), float(e[:-1] @ e[1:] / (e @ e))


def surrogate_p(cov, source, target, n_surrogates, seed):
    """Surrogate p value of the flow source -> target of ``cov``, drawn as
    every report draws it: ``surrogate_p_values`` of the one pair."""
    return surrogate_p_values(cov, [(source, target)], n_surrogates=n_surrogates, seed=seed)[0]


def cofactor_matrix(C):
    """Cofactors and determinant of a square matrix.

    Entry (i, j) is (-1)^(i+j) times the minor with row i and column j
    removed. Closed forms for d <= 3, LU-based minors above. For d = 1 the
    single cofactor is 1. Singular input is allowed; callers inspect det.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"need a square matrix, got shape {C.shape}")
    d = C.shape[0]
    if d == 1:
        return np.array([[1.0]]), float(C[0, 0])
    if d == 2:
        (a, b), (c, e) = C
        cof = np.array([[e, -c], [-b, a]])
        return cof, float(a * e - b * c)
    if d == 3:
        cof = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                r = [x for x in range(3) if x != i]
                s = [x for x in range(3) if x != j]
                minor = C[r[0], s[0]] * C[r[1], s[1]] - C[r[0], s[1]] * C[r[1], s[0]]
                cof[i, j] = minor if (i + j) % 2 == 0 else -minor
        det = C[0, 0] * cof[0, 0] + C[0, 1] * cof[0, 1] + C[0, 2] * cof[0, 2]
        return cof, float(det)

    cof = np.empty((d, d))
    for i in range(d):
        rows = np.arange(d) != i
        sub = C[rows]
        for j in range(d):
            minor = np.linalg.det(sub[:, np.arange(d) != j])
            cof[i, j] = minor if (i + j) % 2 == 0 else -minor
    return cof, float(np.linalg.det(C))
