import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infoflow
from infoflow import (
    TimeSeriesPanel,
    build_covariance_set,
    estimate_flow_matrix,
    forward_difference,
)
from infoflow.covariance import _SCATTER_BUDGET, _scatter
from infoflow.errors import InsufficientDataError, SingularCovarianceError
from infoflow.significance import _surrogate_flows
from conftest import cofactor_matrix, lstsq_fit, make_rng, random_panel, random_spd, with_series


# --- independent oracles -------------------------------------------------

def two_pass_covariance(X):
    """Textbook two-pass sample covariance, explicit loops."""
    d, n = X.shape
    means = [sum(X[i]) / n for i in range(d)]
    C = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for m in range(n):
                acc += (X[i][m] - means[i]) * (X[j][m] - means[j])
            C[i, j] = acc / (n - 1)
    return C


def two_pass_cross_covariance(X, Y):
    """Sample cross-covariances of the rows of X with those of Y, two
    passes with exactly rounded sums (math.fsum)."""
    X, Y = X.tolist(), Y.tolist()
    n = len(X[0])
    xm, ym = [math.fsum(x) / n for x in X], [math.fsum(y) / n for y in Y]
    return np.array([[math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / (n - 1)
                      for y, my in zip(Y, ym)] for x, mx in zip(X, xm)])


def gaussian_elimination_solve(A, b):
    """Plain Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


# --- sample covariance ---------------------------------------------------

def test_identical_series_give_rank_one_covariance():
    # a rank-one C has no fit: the core refuses it
    rng = make_rng(0)
    row = rng.standard_normal(50)
    panel = TimeSeriesPanel(("a", "b"), np.vstack([row, row]))
    with pytest.raises(SingularCovarianceError):
        build_covariance_set(panel, k=1)


def test_anticorrelated_ramps_refused_at_n_minus_k_equal_d_plus_2():
    # n - k = 4 = d + 2 samples leave too few for the fit and its inference
    panel = TimeSeriesPanel(("x", "y"), np.array([[1.0, 2, 3, 4, 5], [4.0, 3, 2, 1, 0]]))
    with pytest.raises(InsufficientDataError):
        build_covariance_set(panel, k=1)


def test_covariance_matches_two_pass_oracle():
    rng = make_rng(3)
    panel = random_panel(rng, d=3, n=120)
    cov = build_covariance_set(panel, k=1)
    expected = two_pass_covariance(panel.values[:, :-1])
    assert np.allclose(cov.matrix, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [1, 2])
def test_covariance_over_several_runs_matches_two_pass_oracle(k):
    # n_eff spans two whole runs of the moment product and a partial third
    d = 3
    run = _SCATTER_BUDGET // (2 * d)
    panel = random_panel(make_rng(30 + k), d=d, n=2 * run + 777 + k)
    cov = build_covariance_set(panel, k)
    assert cov.n_eff == 2 * run + 777
    X = panel.values[:, : cov.n_eff]
    dX = forward_difference(panel, slice(None), k)
    sx, sd = (np.sqrt(np.diag(two_pass_cross_covariance(Y, Y))) for Y in (X, dX))
    assert (np.abs(cov.matrix - two_pass_cross_covariance(X, X)) <= 1e-13 * np.outer(sx, sx)).all()
    assert (np.abs(cov.deriv - two_pass_cross_covariance(X, dX)) <= 1e-13 * np.outer(sx, sd)).all()


def test_scatter_above_d_8_is_the_plain_product():
    # 2d = 32 rows leave runs shorter than _SCATTER_MIN_RUN: one product over all samples
    d = 16
    Zc = make_rng(16).standard_normal((2 * d, 7000))
    assert np.array_equal(_scatter(Zc, d), Zc[:d] @ Zc.T)


_CORE_DIGEST = """
import hashlib
from infoflow import benchmark, build_covariance_set, windowed_flows
panel = benchmark("chain_3", n=40_000, seed=3).panel
core = build_covariance_set(panel)
windows = windowed_flows(panel, 20_000, 20_000)
print(hashlib.sha256(core.matrix.tobytes() + core.deriv.tobytes() + windows.value.tobytes()).hexdigest())
"""


def _blas_name() -> str:
    try:  # mode= needs numpy 1.26
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


@pytest.mark.skipif("openblas" not in _blas_name(), reason="thread count is set through OpenBLAS")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
def test_moments_do_not_depend_on_the_blas_thread_count():
    # a core and one-segment windows whose products sum over several runs
    # of samples give the same bytes on one BLAS thread as on two
    src = str(Path(infoflow.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    digests = {subprocess.run([sys.executable, "-c", _CORE_DIGEST], capture_output=True, text=True, check=True,
                              env={**env, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")}
    assert len(digests) == 1


def test_covariance_symmetric_and_diag_nonnegative():
    rng = make_rng(4)
    for seed in range(5):
        panel = random_panel(make_rng(seed), d=4, n=60)
        cov = build_covariance_set(panel, k=1)
        assert np.allclose(cov.matrix, cov.matrix.T, rtol=1e-12)
        assert (np.diag(cov.matrix) >= 0).all()


def test_covariance_shift_invariance():
    rng = make_rng(5)
    panel = random_panel(rng, d=3, n=80)
    cov = build_covariance_set(panel, k=1)
    for j in range(panel.d):
        shifted = with_series(panel, j, panel.values[j] + 7.5)
        cov2 = build_covariance_set(shifted, k=1)
        assert np.allclose(cov2.matrix, cov.matrix, rtol=0, atol=1e-10)


def test_insufficient_samples_error():
    panel = TimeSeriesPanel(("a", "b", "c"), np.random.default_rng(0).normal(size=(3, 5)))
    with pytest.raises(InsufficientDataError):
        build_covariance_set(panel, k=1)  # n - k = 4 < d + 2 = 5


def test_core_refuses_n_minus_k_equal_to_d_plus_2():
    # the core applies the one sample-count rule that inference needs
    for d, n, k in ((3, 6, 1), (2, 7, 3)):
        panel = random_panel(make_rng(d), d=d, n=n)
        with pytest.raises(InsufficientDataError, match=r"n - k > d \+ 2"):
            build_covariance_set(panel, k)
        assert build_covariance_set(random_panel(make_rng(d), d=d, n=n + 1), k).n_eff == d + 3


def test_bare_flow_of_a_singular_panel_is_refused():
    # build_covariance_set(panel, k).flows[i, j] raises, never reads a None
    a = make_rng(10).standard_normal(200)
    panel = TimeSeriesPanel(("a", "b"), np.vstack([a, 2 * a]))
    with pytest.raises(SingularCovarianceError, match="correlation det="):
        build_covariance_set(panel, 1).flows[0, 1]


def test_window_alignment_shared_between_parts():
    # C and the cross terms must use the same first n-k samples
    rng = make_rng(6)
    panel = random_panel(rng, d=2, n=30)
    k = 3
    cov = build_covariance_set(panel, k)
    assert cov.n_eff == 27
    expected = two_pass_covariance(panel.values[:, : panel.n - k])
    assert np.allclose(cov.matrix, expected, rtol=1e-12)


# --- cross-covariance with the differenced series ------------------------

def test_deriv_cross_constant_target_is_zero():
    rng = make_rng(7)
    values = np.vstack([rng.standard_normal(40), np.full(40, 2.0)])
    panel = TimeSeriesPanel(("a", "b"), values)
    with pytest.raises(SingularCovarianceError):  # a constant series has no variance
        build_covariance_set(panel, 1)


def test_deriv_cross_ramp_target_is_zero():
    # ramp derivative is constant, and covariance with a constant vanishes
    rng = make_rng(8)
    values = np.vstack([rng.standard_normal(40), 0.5 + 0.25 * np.arange(40)])
    panel = TimeSeriesPanel(("a", "b"), values, dt=0.5)
    got = build_covariance_set(panel, 1).deriv[:, 1]
    assert np.allclose(got, 0.0, atol=1e-12)


def test_deriv_cross_matches_naive_loop():
    rng = make_rng(9)
    panel = random_panel(rng, d=2, n=50)
    k = 2
    got = build_covariance_set(panel, k).deriv[:, 0]
    dx = forward_difference(panel, 0, k)
    n_eff = panel.n - k
    dbar = sum(dx) / n_eff
    for j in range(2):
        xj = panel.values[j][:n_eff]
        xbar = sum(xj) / n_eff
        acc = 0.0
        for m in range(n_eff):
            acc += (xj[m] - xbar) * (dx[m] - dbar)
        assert got[j] == pytest.approx(acc / (n_eff - 1), rel=1e-12)


# --- fits read off the core ----------------------------------------------

def test_core_fit_matches_lstsq_oracle():
    # coefficients, residual variance and lag-1 residual autocorrelation of
    # every target against an independent regression
    worst = 0.0
    for seed in range(20):
        for d in range(2, 9):
            for k in (1, 2):
                panel = random_panel(make_rng(5000 + 100 * seed + d), d=d, n=400)
                cov = build_covariance_set(panel, k)
                for i in range(d):
                    _, coef, rvar, lag1 = lstsq_fit(panel, i, k)
                    got = (cov.coefficients[:, i], cov.residual_variance[i], cov.lag1_residual_autocorr[i])
                    for g, want in zip(got, (coef, rvar, lag1)):
                        err = np.max(np.abs(g - want) / np.abs(want))
                        worst = max(worst, float(err))
    assert worst < 1e-9


# --- cofactors (the paper-formula oracle in conftest) --------------------

def test_cofactor_2x2_closed_form():
    a, b, c = 3.0, -1.25, 2.0
    cof, det = cofactor_matrix(np.array([[a, b], [b, c]]))
    assert np.array_equal(cof, [[c, -b], [-b, a]])
    assert det == pytest.approx(a * c - b * b, rel=1e-15)


def test_cofactor_identity():
    for d in (1, 2, 3, 4, 6):
        cof, det = cofactor_matrix(np.eye(d))
        assert np.allclose(cof, np.eye(d), atol=1e-12)
        assert det == pytest.approx(1.0, rel=1e-12)


def test_cofactor_d1_is_one():
    cof, det = cofactor_matrix(np.array([[4.0]]))
    assert cof[0, 0] == 1.0 and det == 4.0


def test_adjugate_identity_5x5():
    C = random_spd(make_rng(10), 5)
    cof, det = cofactor_matrix(C)
    assert np.allclose(C @ cof.T, det * np.eye(5), rtol=1e-9, atol=1e-9 * abs(det))


def test_adjugate_identity_many_seeds():
    # C * adj(C) = det(C) * I across dimensions 2..8, 100 draws
    for seed in range(100):
        rng = make_rng(1000 + seed)
        d = 2 + seed % 7
        C = random_spd(rng, d)
        cof, det = cofactor_matrix(C)
        resid = np.abs(C @ cof.T - det * np.eye(d)).max()
        assert resid < 1e-9 * max(abs(det), 1.0)


def test_laplace_expansion_identity():
    for seed in range(20):
        rng = make_rng(2000 + seed)
        d = 2 + seed % 5
        C = random_spd(rng, d)
        cof, det = cofactor_matrix(C)
        expand = C @ cof.T  # entry (i, k) = sum_j C_ij * cof_kj
        for i in range(d):
            for k in range(d):
                want = det if i == k else 0.0
                assert expand[i, k] == pytest.approx(want, rel=1e-9, abs=1e-9 * abs(det))


def test_cofactor_solve_equals_gaussian_elimination():
    for seed in range(20):
        rng = make_rng(3000 + seed)
        d = 2 + seed % 6
        C = random_spd(rng, d)
        v = rng.standard_normal(d)
        cof, det = cofactor_matrix(C)
        x_cof = cof.T @ v / det
        x_ge = gaussian_elimination_solve(C, v)
        assert np.allclose(x_cof, x_ge, rtol=1e-9, atol=1e-12)


def test_singular_matrix_allowed_in_cofactors():
    C = np.array([[1.0, 1.0], [1.0, 1.0]])
    cof, det = cofactor_matrix(C)
    assert det == 0.0
    assert np.array_equal(cof, [[1.0, -1.0], [-1.0, 1.0]])


def test_flows_are_scale_invariant_down_to_tiny_series():
    # the singularity rule reads the correlation matrix, whose determinant
    # does not underflow when det C and the variance product both do
    panel = random_panel(make_rng(1), 3, 500)
    base = estimate_flow_matrix(panel)
    for scale in (1e-60, 1e-120):
        tiny = TimeSeriesPanel(panel.labels, panel.values * scale, panel.dt)
        build_covariance_set(tiny, 1)  # must not be refused as singular
        got = estimate_flow_matrix(tiny)
        off = ~np.eye(got.d, dtype=bool)
        for g, want in zip(got.value[off], base.value[off]):
            assert g == pytest.approx(want, rel=1e-12, abs=0)
        for g, want in zip(got.p_asymptotic[off], base.p_asymptotic[off]):
            assert g == pytest.approx(want, rel=1e-9)
        samples = _surrogate_flows(build_covariance_set(tiny, 1), [(1, 0)], 19, 2)[0]
        expected = _surrogate_flows(build_covariance_set(panel, 1), [(1, 0)], 19, 2)[0]
        assert np.allclose(samples, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
