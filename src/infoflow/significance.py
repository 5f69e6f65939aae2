"""Uncertainty for flow estimates: asymptotic standard errors and surrogates.

Both routes read the one moment core, a ``CovarianceSet``. The asymptotic
route takes the coefficient variance from the inverse observed information
of the linear-Gaussian fit (equivalently the classical least-squares
variance with the maximum-likelihood residual variance) and scales it by
the factor |C_ij / C_ii| held fixed. Ignoring the ratio's sampling
variability is exact only at T = 0. Under a planted flow it is not second
order: 95% intervals covered planted flows about 0.63 of the time at
n = 1e4 (one_way_2d and chain_3, k = 1).

The surrogate route shifts the target's residual on every series but the
source circularly and adds it back to that fit (Freedman & Lane 1983;
Winkler et al. 2014). That keeps the residual's autocorrelation and every
path through the other series, so it tests the conditional null a_ij = 0:
at alpha = 0.05 it rejected 0.065-0.0725 of chain_3's true null pairs and
0.08-0.085 of confounder_3's (400 per panel and k; n = 1e4, k = 1, 2, 4,
199 surrogates, seeds 1-100). Shifting the source instead, as earlier
builds did, tests unconditional independence of source and target and
rejected 0.110-0.115 and 0.145-0.155. A shuffled source keeps no
autocorrelation, so it tests whether the series are i.i.d. (Schreiber &
Schmitz 2000), which no SDE panel is: it rejected 0.78 and 0.83 of 160
such pairs each (k = 1, 99 surrogates, seeds 1-40).

All surrogates of a core come from one pass over its stack and residuals:
2d forward FFTs, then one inverse FFT per pair (``_surrogate_flows``).
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .covariance import CovarianceSet, _diagonal, _residuals
from .errors import (
    DegenerateInferenceWarning,
    InvalidPairError,
    ResolutionError,
    UsageError,
)

# Lag-1 residual autocorrelation above this is flagged in reports: the
# plain delta-method errors assume serially uncorrelated residuals.
SERIAL_CORRELATION_LIMIT = 0.2

MIN_SURROGATES = 19


def two_sided_p(z) -> np.ndarray:
    """Two-sided standard-normal tail probability of each entry of ``z``, in
    z's shape (0-d for a scalar)."""
    x = np.abs(np.asarray(z, dtype=np.float64)) / math.sqrt(2.0)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def asymptotic_inference(cov: CovarianceSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delta-method standard errors, z scores and two-sided p values of every
    entry of ``cov.flows``, as d x d arrays in its [target, source] layout;
    for a stack of window cores (``covariance.window_cores``), as W x d x d
    arrays.

    stderr[i, j] = |C_ij / C_ii| * sqrt(residual_variance_i * [C^-1]_jj / (n_eff - 1)),
    the inverse-information variance of coefficient j of target i's fit
    scaled by the covariance ratio; on the diagonal (the self influence)
    the ratio is exactly 1. A zero stderr gives z 0. A target with zero
    residual variance (a perfect fit) warns and gives z 0 where the value
    is 0 and +inf elsewhere.
    """
    C, values, residual_variance = cov.matrix, cov.flows, cov.residual_variance
    inverse_diagonal = _diagonal(cov.inverse)[..., None, :]
    var = np.maximum(residual_variance[..., :, None] * inverse_diagonal / (cov.n_eff - 1), 0.0)
    stderr = np.abs(C / _diagonal(C)[..., :, None]) * np.sqrt(var)
    # the |C_ij / C_ii| factor vanishes only with the value itself
    z = np.divide(values, stderr, out=np.zeros_like(values), where=stderr != 0.0)
    perfect = residual_variance == 0.0
    if perfect.any():
        warnings.warn(
            "perfect fit: zero residual variance collapses the standard error",
            DegenerateInferenceWarning,
            stacklevel=_outside_stacklevel(),
        )
        z[perfect] = np.where(values[perfect] == 0.0, 0.0, math.inf)
    return stderr, z, two_sided_p(z)


def _outside_stacklevel() -> int:
    """``stacklevel`` for a warning raised by this function's caller that
    names the first frame outside the package: the user's calling line."""
    frame, level = sys._getframe(1), 1
    while frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


def _require_surrogates(n_surrogates: int) -> None:
    if n_surrogates < MIN_SURROGATES:
        raise ResolutionError(
            f"need at least {MIN_SURROGATES} surrogates for a usable p value,"
            f" got {n_surrogates}"
        )


def _resolve_pairs(pairs, d: int) -> list[tuple[int, int]]:
    """(source, target) ``pairs`` with negative indices mapped into range(d);
    every ordered pair when ``pairs`` is None."""
    if pairs is None:
        return [(j, i) for i in range(d) for j in range(d) if i != j]
    # range() maps negative indices and raises IndexError out of range
    resolved = [(range(d)[j], range(d)[i]) for j, i in pairs]
    if any(j == i for j, i in resolved):
        raise InvalidPairError("source equals target; a flow runs between two distinct series")
    return resolved


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` (an int, None or a SeedSequence) as a SeedSequence.

    ``spawn`` advances the sequence it is called on, so a SeedSequence is
    rebuilt: the same object passed twice gives the same children.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    return np.random.SeedSequence(seed)


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m: a length pocketfft transforms fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that brings it to m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _surrogate_flows(cov: CovarianceSet, pairs, n_surrogates: int, seeds) -> np.ndarray:
    """The surrogate flows (``surrogate_flow_samples``) of each resolved
    (source, target) of ``pairs``, one row per pair, row p drawn on ``seeds[p]``.

    With Xc the centred first n = n_eff samples of every series (the X rows
    of the core's ``stack``) and E every target's residuals
    (``covariance._residuals``), coefficient j of a fit on all series is
    w_j . y for w = C^-1 Xc / (n - 1), and

        r_ij = E_i + B_ji (n - 1) / [C^-1]_jj w_j
        T    = (w_j . roll(r_ij, s)) C_ij / C_ii,

    B_ji at shift 0. All shifts of a pair come from one zero-padded linear
    correlation of w_j with r_ij at the smallest 5-smooth length >= 2n - 1.
    r_ij is linear in E_i and w_j, so a core takes 2d forward real FFTs and a
    pair one inverse. No surrogate refits a covariance, so none can be
    singular; ``build_covariance_set`` refuses a singular panel before any
    core exists.
    """
    n, C, B, inverse = cov.n_eff, cov.matrix, cov.coefficients, cov.inverse
    length = _fft_length(2 * n - 1)
    E = _residuals(cov.stack, B)[0]
    W = inverse @ cov.stack[:cov.d]
    W /= n - 1
    FE = np.fft.rfft(E, length)
    del E  # each array goes as soon as its spectrum is taken
    FW = np.fft.rfft(W, length)
    del W
    lo = max(1, math.ceil(n / 10))
    samples = np.empty((len(pairs), n_surrogates))
    for row, ((j, i), seed) in enumerate(zip(pairs, seeds)):
        rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed)))
        shifts = rng.integers(lo, n - lo, size=n_surrogates, endpoint=True)
        # lags[t] = sum_u w_j[u + t] r_ij[u] for |t| < n (t < 0 from the end);
        # roll(r, s) pairs w[u + s] with r[u] at lag s and, past the wrap, at s - n
        spectrum = FW[j] * (FE[i] + B[j, i] * (n - 1) / inverse[j, j] * FW[j]).conj()
        lags = np.fft.irfft(spectrum, length)
        samples[row] = (lags[shifts] + lags[shifts - n]) * C[i, j] / C[i, i]
    return samples


def surrogate_flow_samples(
    cov: CovarianceSet,
    source: int,
    target: int,
    *,
    n_surrogates: int,
    seed=None,
) -> np.ndarray:
    """Flow re-estimates under the null a_ij = 0 from ``n_surrogates``
    Freedman-Lane residual shifts, as a 1-D array: one pair's row of the
    per-core pass (``_surrogate_flows``) that every surrogate p value reads.

    Surrogate s fits dX_i on every series but the source j, adds that fit's
    residual r shifted circularly by s back to the fit, and re-estimates the
    flow on all series. The shift keeps r's autocorrelation (the MA(k - 1)
    of a stride-k difference among it) and the fit keeps every path through
    the other series, so this tests the conditional null a_ij = 0; its size
    is in the module docstring. One ``Generator(PCG64(seed))`` draws the
    shifts in one call, ``integers(lo, n - lo, size=n_surrogates,
    endpoint=True)`` with n = n_eff and lo = max(1, ceil(n / 10)).
    """
    return _surrogate_flows(cov, _resolve_pairs([(source, target)], cov.d), n_surrogates, [seed])[0]


def _surrogate_p_values(cov: CovarianceSet, pairs, *, n_surrogates: int, seed) -> np.ndarray:
    """Surrogate p values of each resolved (source, target) in ``pairs``,
    p = (1 + #{|T_surr| >= |T|}) / (n_surrogates + 1) against the observed
    flow T of ``cov.flows``, so the attainable resolution is exactly
    1/(n_surrogates + 1). Pair j -> i draws the child of ``seed`` at the
    flat index of its [target, source] entry."""
    d = cov.d
    children = _seed_sequence(seed).spawn(d * d)
    samples = _surrogate_flows(cov, pairs, n_surrogates, [children[i * d + j] for j, i in pairs])
    observed = np.abs(cov.flows[[i for _, i in pairs], [j for j, _ in pairs]])
    exceed = np.sum(np.abs(samples) >= observed[:, None], axis=1)
    return (1 + exceed) / (n_surrogates + 1)
