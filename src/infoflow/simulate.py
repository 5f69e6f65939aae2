"""Validation-data generators: Euler-Maruyama integration and benchmarks.

Simulation uses the same first-order scheme the estimator's forward
differencing assumes, which keeps estimator bias at O(dt) for fixed step.
The linear recursion runs as a recursive block scan, not step by step: a
few GEMMs per level over about log_8(n) levels, about 10 n d^2
multiply-adds in all against n d^2 step by step. That pays at small d,
where the cost of a call outweighs its flops, and not at large d: at
n = 1e5 on 2 vCPUs it beats the sqrt(n)-step blocked scan of earlier
builds 6 times at d = 3, 2.6 times at d = 8 and 1.3 times at d = 16, but
is 1.5 to 2 times slower at d = 32 and about 3 times at d = 64. All noise
comes from numpy's PCG64 generator under an explicit (non-negative) seed,
so a given spec reproduces its panel bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import LinearSDE
from .errors import InstabilityError, UsageError, ValidationError
from .panel import TimeSeriesPanel

RNG_ALGORITHM = "pcg64"

# Any |X| beyond this aborts the run as numerically exploded.
EXPLOSION_LIMIT = 1e12

DEFAULT_BURN_IN = 10_000

# Each level of the affine scan accumulates blocks of _SCAN_BLOCK steps by
# GEMMs of at most _SCAN_BUDGET elements, which bounds its temporaries.
_SCAN_BLOCK = 8
_SCAN_BUDGET = 1 << 13

BENCHMARK_NAMES = ("one_way_2d", "chain_3", "confounder_3", "independent_d", "henon")


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    """One seeded integration run of a linear SDE."""

    system: LinearSDE
    n: int
    dt: float
    seed: int
    burn_in: int = DEFAULT_BURN_IN
    x0: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        _require_seed(self.seed)
        if self.n <= 0:
            raise ValidationError(f"n must be positive, got {self.n}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be a positive finite number, got {self.dt!r}")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be nonnegative, got {self.burn_in}")
        x0 = np.zeros(self.system.d) if self.x0 is None else np.asarray(self.x0, float).reshape(-1)
        if x0.shape != (self.system.d,):
            raise ValidationError(f"x0 must have length {self.system.d}")
        object.__setattr__(self, "x0", x0)
        labels = self.labels or tuple(f"x{i + 1}" for i in range(self.system.d))
        if len(labels) != self.system.d:
            raise ValidationError("one label per component required")
        object.__setattr__(self, "labels", tuple(labels))


def euler_maruyama(spec: SimulationSpec) -> TimeSeriesPanel:
    """Integrate X[m+1] = X[m] + (f + A X[m]) dt + B sqrt(dt) xi[m].

    The first ``burn_in`` steps are discarded; the returned panel holds the
    next ``n`` states (the initial state itself when burn_in = 0). The
    recursion runs as a recursive block scan (``_affine_scan``) in about
    10 n d^2 multiply-adds and a few GEMMs per level, fast at small d and
    slow at large d (see the module docstring), so panels match a
    step-by-step loop over the same noise to round-off; identical seeds
    produce bit-identical panels.
    """
    return _integrate(spec, spec.system.A, spec.burn_in + spec.n)


def _integrate(spec: SimulationSpec, A_late: np.ndarray, switch: int) -> TimeSeriesPanel:
    """``euler_maruyama`` of ``spec`` with drift matrix ``A_late`` from step ``switch`` on."""
    sys, dt = spec.system, spec.dt
    total = spec.burn_in + spec.n
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    # traj[m] holds the drive f*dt + B*sqrt(dt)*xi[m-1] until the scan turns
    # it into the state X[m] in place.
    traj = np.empty((total, sys.d))
    traj[0] = spec.x0
    np.matmul(rng.standard_normal((total - 1, sys.m)), sys.B.T * np.sqrt(dt), out=traj[1:])
    traj[1:] += sys.f * dt
    # overflow is tolerated here and diagnosed below as an instability
    with np.errstate(over="ignore", invalid="ignore"):
        _affine_scan(traj[:switch], np.eye(sys.d) + sys.A.T * dt)
        _affine_scan(traj[switch - 1 :], np.eye(sys.d) + A_late.T * dt)

    if not (traj.max() <= EXPLOSION_LIMIT and -traj.min() <= EXPLOSION_LIMIT):  # NaN and ±inf fail too
        raise InstabilityError(
            f"trajectory exploded beyond |X| = {EXPLOSION_LIMIT:g};"
            " try a smaller dt or a stabler system"
        )
    return TimeSeriesPanel(labels=spec.labels, values=traj[spec.burn_in :].T, dt=dt)


def _affine_scan(x: np.ndarray, M: np.ndarray) -> None:
    """In place, x[m] = x[m-1] @ M + x[m] for m = 1, 2, ... (x[0] is the start).

    Recursive block scan in about (L + 1) n d^2 multiply-adds, a few GEMMs
    on each of about log_L(n) levels, for blocks of L = ``_SCAN_BLOCK``
    steps. A product with
    the block upper-triangular Toeplitz T[r, t] = M^(t-r) accumulates every
    block from a zero state; the block starts are the affine scan of the
    block ends under M^L, run by this function; a product with
    [M^1 | ... | M^L] adds each block's start to its steps. The powers stop
    short of EXPLOSION_LIMIT, so an unexcited mode that M would blow up
    never multiplies 0 by inf; below two powers the plain recursion runs.
    """
    n, d = len(x) - 1, x.shape[1]
    if n <= 0:
        return
    powers = [np.eye(d), M]
    while len(powers) <= _SCAN_BLOCK:
        nxt = powers[-1] @ M
        if not np.abs(nxt).max() <= EXPLOSION_LIMIT:
            break
        powers.append(nxt)
    L = len(powers) - 1
    if L < 2:
        for m in range(1, n + 1):
            x[m] += x[m - 1] @ M
        return
    powers = np.stack(powers)
    lag = np.arange(L) - np.arange(L)[:, None]  # t - r
    T = np.where((lag >= 0)[:, :, None, None], powers[np.maximum(lag, 0)], 0.0)
    T = T.transpose(0, 2, 1, 3).reshape(L * d, L * d)
    F = powers[1:].transpose(1, 0, 2).reshape(d, L * d)
    blocks = n // L
    y = x[1 : 1 + blocks * L].reshape(blocks, L * d)
    chunk = max(1, _SCAN_BUDGET // (L * d))
    for c in range(0, blocks, chunk):
        y[c : c + chunk] = y[c : c + chunk] @ T
    tail = x[1 + blocks * L :].reshape(1, -1)
    tail[:] = tail @ T[: tail.size, : tail.size]
    del T  # the deeper levels hold only their own
    starts = np.empty((blocks + 1, d))
    starts[0] = x[0]
    starts[1:] = y[:, -d:]
    _affine_scan(starts, powers[L])
    for c in range(0, blocks, chunk):
        y[c : c + chunk] += starts[c : min(c + chunk, blocks)] @ F
    tail += starts[-1] @ F[:, : tail.size]


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """Simulated panel plus the planted causal structure that generated it."""

    panel: TimeSeriesPanel
    name: str | None  # None for a system not among the named benchmarks
    true_edges: tuple[tuple[int, int], ...]  # (source, target), 0-based
    system: LinearSDE | None
    params: dict = field(default_factory=dict)

    def true_edge_strings(self) -> list[str]:
        """Edges as 1-based 'j->i' strings, e.g. '2->1'."""
        return [f"{src + 1}->{tgt + 1}" for src, tgt in self.true_edges]


def simulate_system(
    system: LinearSDE,
    params: dict | None = None,
    *,
    n: int,
    seed: int,
    labels: tuple[str, ...] | None = None,
) -> BenchmarkResult:
    """Seeded Euler-Maruyama run of ``system`` with its planted edges.

    params: dt (default 0.01), burn_in (default ``DEFAULT_BURN_IN``). The
    flow j -> i of a linear system vanishes exactly where A[i, j] does, so
    the true edges are the nonzero off-diagonal drift entries, in
    (source, target) order.
    """
    params = dict(params or {})
    dt = float(params.pop("dt", 0.01))
    burn_in = int(params.pop("burn_in", DEFAULT_BURN_IN))
    _reject_unknown(params)
    spec = SimulationSpec(system=system, n=n, dt=dt, seed=seed, burn_in=burn_in, labels=labels)
    d, A = system.d, system.A
    return BenchmarkResult(
        panel=euler_maruyama(spec),
        name=None,
        true_edges=tuple((j, i) for j in range(d) for i in range(d) if i != j and A[i, j] != 0.0),
        system=system,
        params={"dt": dt, "burn_in": burn_in},
    )


# Drift of each coupled linear benchmark as a function of the coupling c.
_COUPLED_DRIFTS = {
    "one_way_2d": (("x", "y"), lambda c: [[-1.0, c], [0.0, -1.0]]),
    "chain_3": (("x1", "x2", "x3"), lambda c: [[-1.0, 0.0, 0.0], [c, -1.0, 0.0], [0.0, c, -1.0]]),
    "confounder_3": (("x1", "x2", "x3"), lambda c: [[-1.0, 0.0, c], [0.0, -1.0, c], [0.0, 0.0, -1.0]]),
}


def benchmark(name: str, params: dict | None = None, *, n: int, seed: int) -> BenchmarkResult:
    """Named generator with known causal structure.

    one_way_2d    y drives x (coupling in the first drift row), nothing back
    chain_3       x1 -> x2 -> x3
    confounder_3  x3 drives both x1 and x2; x1 and x2 are not coupled
    independent_d diagonal drift, no cross edges (params: d)
    henon         chaotic map x <- 1 - a x^2 + y, y <- b x, unit time step

    The coupled linear benchmarks accept params coupling, noise, dt,
    burn_in; independent_d accepts d, noise, dt, burn_in. Their true edges
    are read off the drift by ``simulate_system``, so coupling 0 plants none.
    """
    params = dict(params or {})
    if name not in BENCHMARK_NAMES:
        raise UsageError(f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}")

    if name == "henon":
        a = float(params.pop("a", 1.4))
        b = float(params.pop("b", 0.3))
        burn_in = int(params.pop("burn_in", 100))
        _reject_unknown(params)
        _require_seed(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        # Seed only jitters the initial point inside the attractor basin.
        x, y = 0.1 + 1e-3 * rng.standard_normal(2)
        total = burn_in + n
        traj = np.empty((total, 2))
        for m in range(total):
            traj[m] = (x, y)
            x, y = 1.0 - a * x * x + y, b * x
        if not np.isfinite(traj).all() or np.abs(traj).max() > EXPLOSION_LIMIT:
            raise InstabilityError("map trajectory left the attractor basin")
        panel = TimeSeriesPanel(labels=("x", "y"), values=traj[burn_in:].T, dt=1.0)
        return BenchmarkResult(
            panel=panel,
            name=name,
            true_edges=((0, 1), (1, 0)),
            system=None,
            params={"a": a, "b": b, "burn_in": burn_in},
        )

    head, tail = {}, {}
    if name == "independent_d":
        d = int(params.pop("d", 4))
        if d < 1:
            raise UsageError("independent_d needs d >= 1")
        A, labels, tail = -np.eye(d), None, {"d": d}
    else:
        head = {"coupling": float(params.pop("coupling", 0.5))}
        labels, drift = _COUPLED_DRIFTS[name]
        A = drift(head["coupling"])
    noise = float(params.pop("noise", 1.0))
    system = LinearSDE(f=np.zeros(len(A)), A=A, B=noise * np.eye(len(A)))
    result = simulate_system(system, params, n=n, seed=seed, labels=labels)
    return replace(result, name=name, params={**head, "noise": noise, **result.params, **tail})


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


def _reject_unknown(params: dict) -> None:
    if params:
        raise UsageError(f"unknown simulation parameter(s): {', '.join(sorted(params))}")


def regime_switch_panel(
    n: int,
    switch_at: int,
    *,
    coupling: float = 2.0,
    dt: float = 0.01,
    seed: int,
    noise: float = 1.0,
    burn_in: int = DEFAULT_BURN_IN,
) -> tuple[TimeSeriesPanel, int]:
    """Two-regime series: y is decoupled from x until ``switch_at``, then drives it.

    One continuous trajectory and noise stream; only the drift coupling of y
    into x switches on. Returns the panel and the switch sample index,
    the scenario behind windowed onset-detection studies.
    """
    if not 0 < switch_at < n:
        raise UsageError("switch_at must lie strictly inside the run")
    off = LinearSDE(f=np.zeros(2), A=-np.eye(2), B=noise * np.eye(2))
    spec = SimulationSpec(system=off, n=n, dt=dt, seed=seed, burn_in=burn_in, labels=("x", "y"))
    A_on = np.array([[-1.0, coupling], [0.0, -1.0]])
    return _integrate(spec, A_on, burn_in + switch_at + 1), switch_at
