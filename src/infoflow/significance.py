"""Uncertainty for flow estimates: asymptotic standard errors and surrogates.

Both routes read the one moment core, a ``CovarianceSet``. The asymptotic
route takes the coefficient variance from the inverse observed information
of the linear-Gaussian fit (equivalently the classical least-squares
variance with the maximum-likelihood residual variance) and scales it by
the factor |C_ij / C_ii| held fixed. Ignoring the ratio's sampling
variability is exact only at T = 0. Under a planted flow it is not second
order: 95% intervals covered planted flows about 0.63 of the time at
n = 1e4 (one_way_2d and chain_3, k = 1).

The surrogate route re-estimates the flow against circularly shifted
source series. Shifting the source breaks its dependence on every other
series, so the test is one of unconditional independence of source and
target, not of the conditional null a_ij = 0. Where the source is
correlated with the target through other paths it over-rejects true
nulls: at alpha = 0.05 it rejected 0.088 of the 160 null pairs of chain_3
and 0.144 of those of confounder_3 (n = 1e4, k = 1, 99 surrogates,
simulation and surrogate seeds 1-40).

Circular shifts are the only surrogates because a shift keeps the
source's autocorrelation. Shuffling the source destroys it too, so it tests
whether the series are i.i.d. (Schreiber & Schmitz 2000), which no SDE
panel is: on the same pairs shuffled sources rejected 0.78 and 0.83.

One seeded draw per pair gives all its shifts, and one FFT cross-correlation
per pair gives the moments at every shift: O(n log n) per pair in all.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .covariance import CovarianceSet, _correlation_det, _diagonal, _near_singular
from .errors import (
    DegenerateInferenceWarning,
    InsufficientDataError,
    InvalidPairError,
    ResolutionError,
    SingularCovarianceError,
    UsageError,
)
from .panel import forward_difference

# Lag-1 residual autocorrelation above this is flagged in reports: the
# plain delta-method errors assume serially uncorrelated residuals.
SERIAL_CORRELATION_LIMIT = 0.2

MIN_SURROGATES = 19


def two_sided_p(z: float) -> float:
    """Two-sided standard-normal tail probability."""
    return math.erfc(abs(z) / math.sqrt(2.0))


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
    if cov.near_singular:
        raise SingularCovarianceError("cannot attach significance to a singular fit")
    if cov.n_eff <= cov.d + 2:
        raise InsufficientDataError(
            f"need n_eff > d + 2 for asymptotic inference (n_eff={cov.n_eff}, d={cov.d})"
        )
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
    p = np.array([two_sided_p(x) for x in z.ravel().tolist()]).reshape(z.shape)
    return stderr, z, p


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


def surrogate_flow_samples(
    cov: CovarianceSet,
    source: int,
    target: int,
    *,
    n_surrogates: int,
    seed=None,
) -> np.ndarray:
    """Flow re-estimates against ``n_surrogates`` circular shifts of the source.

    Entry m equals the flow of the core of ``cov``'s panel at its stride
    with the source replaced by surrogate m, but no panel is copied. A
    surrogate s changes only the source's row and column of C and the
    source's entry of the target's derivative cross-moments. What stays
    fixed is read off the core: the covariance block C_OO of the other
    series O (the target among them) and their cross-moments dcov_O with
    dX_target. From c = cov(X_O, s), g = cov(s, dX_target) and v = var(s)
    the Schur complement of C_OO finishes in O(d^2):

        coef = (g - c' C_OO^-1 dcov_O) / (v - c' C_OO^-1 c)
        T    = coef * c_target / C_target,target
        det  = det C_OO * (v - c' C_OO^-1 c)

    c and g at every circular shift are one circular cross-correlation of
    the source with the centred rows of O and dX_target: d + 1 forward and
    d inverse FFTs, O(n log n) per pair. v comes from the k samples a
    surrogate's window leaves out.

    A surrogate whose covariance fails the ``NEAR_SINGULAR_RTOL`` test
    contributes +inf (counts as extreme, which can only make the p value
    more conservative); if C_OO fails it, every surrogate does.

    One ``Generator(PCG64(seed))`` draws the shifts in one call,
    ``integers(lo, n - lo, size=n_surrogates, endpoint=True)`` with
    lo = max(1, ceil(n / 10)) (at least n/10 from either identity). There
    is no other surrogate: shuffled sources keep no autocorrelation and
    rejected 0.78-0.83 of true null pairs at alpha = 0.05 (module docstring).
    """
    [(source, target)] = _resolve_pairs([(source, target)], cov.d)
    panel, n_eff = cov.panel, cov.n_eff
    others = [m for m in range(cov.d) if m != source]
    t = others.index(target)
    C_oo = cov.matrix[np.ix_(others, others)]
    dcov_o = cov.deriv[others, target]
    det_oo = _correlation_det(C_oo)
    if _near_singular(det_oo):
        return np.full(n_surrogates, math.inf)
    C_oo_inv = np.linalg.inv(C_oo)

    # centred rows of the other series, then of dX_target; the source is
    # centred by its global mean, which keeps the digits of v and the FFT
    Z = np.vstack([panel.values[others, :n_eff], forward_difference(panel, target, cov.k)])
    Z -= Z.mean(axis=1, keepdims=True)
    row = panel.values[source] - panel.values[source].mean()
    n = len(row)
    rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed)))
    lo = max(1, math.ceil(n / 10))
    shifts = rng.integers(lo, n - lo, size=n_surrogates, endpoint=True)
    # roll(row, s)[m] = row[m - s], so column s of the cross-correlation
    # is Z @ roll(row, s)[:n_eff]
    cross = np.fft.irfft(np.fft.rfft(Z, n) * np.fft.rfft(row).conj(), n)[:, shifts].T
    omitted = row[(np.arange(n_eff, n) - shifts[:, None]) % n]
    # the window's sums are the row's sums less the omitted samples'
    window_sum = row.sum() - omitted.sum(axis=1)
    v = row @ row - np.einsum("mi,mi->m", omitted, omitted) - window_sum**2 / n_eff
    # centre each surrogate by its window mean too: the centred rows of an
    # offset series do not sum to exactly 0
    cross -= np.outer(window_sum / n_eff, Z.sum(axis=1))
    c, g, v = cross[:, :-1] / (n_eff - 1), cross[:, -1] / (n_eff - 1), v / (n_eff - 1)
    schur = v - np.einsum("mi,mi->m", c @ C_oo_inv, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        flows = (g - c @ (C_oo_inv @ dcov_o)) / schur * c[:, t] / C_oo[t, t]
        # det C / (product of variances) = det_corr(C_OO) * schur / v
        flows[_near_singular(det_oo * schur / v)] = math.inf
    return flows


def surrogate_significance(
    cov: CovarianceSet,
    source: int,
    target: int,
    *,
    n_surrogates: int = 199,
    seed=None,
) -> float:
    """Nonparametric p value of the flow source -> target of ``cov`` from
    circular-shift surrogates.

    p = (1 + #{|T_surr| >= |T|}) / (n_surrogates + 1), so the attainable
    resolution is exactly 1/(n_surrogates + 1). The observed flow T is
    ``cov.flows[target, source]``, so a near-singular core is refused.
    """
    _require_surrogates(n_surrogates)
    if cov.near_singular:
        raise SingularCovarianceError("cannot test the flow of a singular fit")
    samples = surrogate_flow_samples(cov, source, target, n_surrogates=n_surrogates, seed=seed)
    exceed = int(np.sum(np.abs(samples) >= abs(cov.flows[target, source])))
    return (1 + exceed) / (n_surrogates + 1)


def _surrogate_p_values(cov: CovarianceSet, pairs, *, n_surrogates: int, seed) -> list[float]:
    """``surrogate_significance`` of each resolved (source, target) in
    ``pairs``; pair j -> i draws the child of ``seed`` at the flat index of
    its [target, source] entry."""
    d = cov.d
    children = _seed_sequence(seed).spawn(d * d)
    return [surrogate_significance(cov, j, i, n_surrogates=n_surrogates, seed=children[i * d + j])
            for j, i in pairs]
