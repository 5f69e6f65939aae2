"""Closed-form ground truth for stable linear stochastic systems.

For dX = (f + A X) dt + B dW with Hurwitz A, the stationary covariance
solves A S + S A' + B B' = 0 and the directed flow rate from component j
to component i is A[i, j] * S[i, j] / S[i, i] in nats per unit time.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningWarning,
    DataError,
    DegenerateComponentError,
    InvalidTransformError,
    NonStationaryError,
    UsageError,
    ValidationError,
)

# Stability margin: max real part of the drift eigenvalues must sit below this.
HURWITZ_TOL = -1e-10

# Lyapunov residual bound, relative to max(1, ||BB'||_max).
LYAPUNOV_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinearSDE:
    """Constant-coefficient linear SDE: dX = (f + A X) dt + B dW."""

    f: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"drift matrix A must be square, got shape {A.shape}")
        d = A.shape[0]
        f = np.asarray(self.f, dtype=np.float64).reshape(-1)
        if f.shape != (d,):
            raise ValidationError(f"drift offset f must have length {d}, got {f.shape}")
        B = np.asarray(self.B, dtype=np.float64)
        if B.ndim == 1:
            B = B.reshape(d, -1)
        if B.ndim != 2 or B.shape[0] != d:
            raise ValidationError(f"diffusion matrix B must have {d} rows, got shape {B.shape}")
        for name, arr in (("f", f), ("A", A), ("B", B)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"non-finite entry in {name}")
        for arr in (f, A, B):
            arr.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def noise_covariance(self) -> np.ndarray:
        """G = B B', the diffusion covariance; diagonal entries are g_ii."""
        return self.B @ self.B.T

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)

    def is_hurwitz(self) -> bool:
        return bool(self.eigenvalues().real.max() < HURWITZ_TOL)


@dataclass(frozen=True, eq=False)
class StationaryCovariance:
    """Stationary covariance of a stable linear SDE, with its solve residual."""

    matrix: np.ndarray
    residual: float

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def stationary_covariance(sys: LinearSDE) -> StationaryCovariance:
    """Solve A S + S A' + B B' = 0 by Kronecker-sum vectorization.

    O(d^6) work, fine at desk scale (d up to ~50). The residual
    max|A S + S A' + B B'| is checked against 1e-10 * max(1, max|BB'|);
    a near-degenerate eigenvalue-sum spectrum triggers a conditioning
    warning before the solve.
    """
    if not sys.is_hurwitz():
        raise NonStationaryError(
            "drift matrix is not Hurwitz (eigenvalue with nonnegative real part);"
            " no stationary distribution exists"
        )
    d = sys.d
    G = sys.noise_covariance()
    eig = sys.eigenvalues()
    sums = np.abs(eig[:, None] + eig[None, :])
    if sums.min() < 1e-8 * max(sums.max(), 1.0):
        warnings.warn(
            "Lyapunov solve is ill-conditioned (near-cancelling eigenvalue pair)",
            ConditioningWarning,
            stacklevel=2,
        )
    eye = np.eye(d)
    K = np.kron(eye, sys.A) + np.kron(sys.A, eye)
    vec = np.linalg.solve(K, -G.reshape(-1, order="F"))
    S = vec.reshape((d, d), order="F")
    S = 0.5 * (S + S.T)
    residual = float(np.abs(sys.A @ S + S @ sys.A.T + G).max())
    tol = LYAPUNOV_RTOL * max(1.0, float(np.abs(G).max()))
    if residual >= tol:
        raise NonStationaryError(
            f"Lyapunov solve failed: residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return StationaryCovariance(matrix=S, residual=residual)


def analytic_flow(sys: LinearSDE, sigma, source: int, target: int) -> float:
    """Population flow rate source -> target: A[i,j] * S[i,j] / S[i,i].

    Zero coupling (A[i,j] = 0) or zero correlation (S[i,j] = 0) gives an
    exact zero; causation implies correlation, never the reverse.
    """
    S = sigma.matrix if isinstance(sigma, StationaryCovariance) else np.asarray(sigma, float)
    i, j = int(target), int(source)
    if S[i, i] <= 0.0:
        raise DegenerateComponentError(
            f"component {i} has zero stationary variance; flow into it is undefined"
        )
    return float(sys.A[i, j] * S[i, j] / S[i, i])


def transform_other_components(sys: LinearSDE, i: int, j: int, M: np.ndarray) -> LinearSDE:
    """Apply an invertible linear map to every component except i and j.

    Returns the system for Y = P X with P identity on components i, j and M
    on the remaining block; the flow between i and j is invariant under any
    such change of coordinates.
    """
    d = sys.d
    if d < 3:
        raise UsageError("transforming other components needs d >= 3")
    i, j = int(i), int(j)
    if i == j:
        raise UsageError("components i and j must differ")
    M = np.asarray(M, dtype=np.float64)
    rest = [r for r in range(d) if r not in (i, j)]
    if M.shape != (len(rest), len(rest)):
        raise InvalidTransformError(
            f"transform must be {len(rest)}x{len(rest)}, got {M.shape}"
        )
    if np.linalg.matrix_rank(M) < len(rest):
        raise InvalidTransformError("transform matrix is singular")
    P = np.eye(d)
    P[np.ix_(rest, rest)] = M
    P_inv = np.linalg.inv(P)
    return LinearSDE(f=P @ sys.f, A=P @ sys.A @ P_inv, B=P @ sys.B)


def load_system(source) -> LinearSDE:
    """A LinearSDE from a JSON object/text/file whose f, A, B are numeric, rectangular arrays."""
    if isinstance(source, dict):
        obj = source
    else:
        try:
            if isinstance(source, str) and source.lstrip().startswith("{"):
                obj = json.loads(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read system file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid system JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"system specification must be a JSON object, got {type(obj).__name__}")
    try:
        arrays = {name: np.array(obj[name], dtype=np.float64) for name in ("f", "A", "B")}
    except KeyError as exc:
        raise ValidationError(f"system specification missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"system f, A and B must be numeric, rectangular arrays: {exc}") from None
    return LinearSDE(**arrays)
