import tracemalloc

import numpy as np
import pytest

from infoflow import (
    LinearSDE,
    SimulationSpec,
    benchmark,
    euler_maruyama,
    regime_switch_panel,
    simulate_system,
    stationary_covariance,
)
from infoflow.errors import InstabilityError, InsufficientDataError, UsageError, ValidationError
from infoflow.simulate import _SCAN_BLOCK, _SCAN_BUDGET, _affine_scan
from conftest import make_rng, random_stable_system


def decay_system(d=1):
    return LinearSDE(f=np.zeros(d), A=-np.eye(d), B=np.zeros((d, d)))


def loop_oracle(spec):
    """Step-by-step Euler-Maruyama over the same noise draw as the library:
    X[m] = X[m-1] (I + A dt)' + f dt + B sqrt(dt) xi[m-1]."""
    sys, dt = spec.system, spec.dt
    total = spec.burn_in + spec.n
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    drive = rng.standard_normal((total - 1, sys.m)) @ (sys.B.T * np.sqrt(dt)) + sys.f * dt
    step = (np.eye(sys.d) + sys.A * dt).T
    traj = np.empty((total, sys.d))
    traj[0] = spec.x0
    for m in range(1, total):
        traj[m] = traj[m - 1] @ step + drive[m - 1]
    return traj[spec.burn_in :].T


def assert_round_off(values, oracle):
    # the scan sums in another order than the loop: equal up to round-off
    assert np.abs(values - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_noise_free_decay_is_exact():
    # with B = 0 the scheme is the exact geometric recursion x[m] = (1 - dt)^m;
    # compare against the independently run recursion and to the closed-form
    # power, both up to round-off
    dt, n = 0.1, 50
    spec = SimulationSpec(system=decay_system(), n=n, dt=dt, seed=0, burn_in=0, x0=[1.0])
    panel = euler_maruyama(spec)
    recursion = np.empty(n)
    recursion[0] = 1.0
    for m in range(1, n):
        recursion[m] = recursion[m - 1] * (1 - dt)
    assert_round_off(panel.values[0], recursion)
    assert np.allclose(panel.values[0], (1 - dt) ** np.arange(n), rtol=1e-13)


def test_seeded_runs_are_bit_identical():
    sys = LinearSDE(f=[0.1, 0.0], A=[[-1.0, 0.5], [0.0, -1.0]], B=np.eye(2))
    spec = SimulationSpec(system=sys, n=500, dt=0.01, seed=123, burn_in=100)
    a = euler_maruyama(spec)
    b = euler_maruyama(spec)
    assert np.array_equal(a.values, b.values)
    assert a.labels == b.labels and a.dt == b.dt


def test_different_seeds_differ():
    sys = LinearSDE(f=[0.0], A=[[-1.0]], B=[[1.0]])
    a = euler_maruyama(SimulationSpec(system=sys, n=100, dt=0.01, seed=1, burn_in=0))
    b = euler_maruyama(SimulationSpec(system=sys, n=100, dt=0.01, seed=2, burn_in=0))
    assert not np.array_equal(a.values, b.values)


def test_ou_long_run_variance_near_analytic():
    sys = LinearSDE(f=[0.0], A=[[-1.0]], B=[[1.0]])
    spec = SimulationSpec(system=sys, n=200_000, dt=0.01, seed=5, burn_in=10_000)
    panel = euler_maruyama(spec)
    target = stationary_covariance(sys).matrix[0, 0]  # 0.5
    assert np.var(panel.values[0]) == pytest.approx(target, rel=0.05)


def test_exploding_trajectory_raises():
    sys = LinearSDE(f=[0.0], A=[[+5.0]], B=[[0.0]])
    spec = SimulationSpec(system=sys, n=5000, dt=1.0, seed=0, burn_in=0, x0=[1.0])
    with pytest.raises(InstabilityError, match="smaller dt"):
        euler_maruyama(spec)


def test_trajectory_exploding_towards_minus_infinity_raises():
    sys = LinearSDE(f=[0.0], A=[[+5.0]], B=[[0.0]])
    spec = SimulationSpec(system=sys, n=5000, dt=1.0, seed=0, burn_in=0, x0=[-1.0])
    with pytest.raises(InstabilityError, match="smaller dt"):
        euler_maruyama(spec)


def test_spec_validation():
    sys = decay_system()
    with pytest.raises(ValidationError):
        SimulationSpec(system=sys, n=0, dt=0.1, seed=0)
    with pytest.raises(ValidationError):
        SimulationSpec(system=sys, n=10, dt=-0.1, seed=0)
    for dt in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="finite"):
            SimulationSpec(system=sys, n=10, dt=dt, seed=0)
    with pytest.raises(ValidationError):
        SimulationSpec(system=sys, n=10, dt=0.1, seed=0, burn_in=-1)
    with pytest.raises(ValidationError):
        SimulationSpec(system=sys, n=10, dt=0.1, seed=0, x0=[1.0, 2.0])


def test_one_way_2d_descriptor():
    b = benchmark("one_way_2d", None, n=100, seed=0)
    assert b.panel.labels == ("x", "y")
    assert b.true_edges == ((1, 0),)
    assert b.true_edge_strings() == ["2->1"]
    assert b.system is not None and b.system.A[0, 1] == 0.5


def test_chain_and_confounder_descriptors():
    chain = benchmark("chain_3", None, n=50, seed=0)
    assert chain.true_edge_strings() == ["1->2", "2->3"]
    conf = benchmark("confounder_3", None, n=50, seed=0)
    assert conf.true_edge_strings() == ["3->1", "3->2"]


def test_independent_d_descriptor():
    b = benchmark("independent_d", {"d": 4}, n=50, seed=1)
    assert b.panel.d == 4
    assert b.true_edges == ()
    assert np.array_equal(b.system.A, -np.eye(4))


def test_henon_stays_bounded():
    b = benchmark("henon", None, n=10_000, seed=3)
    assert b.panel.dt == 1.0
    assert np.abs(b.panel.values).max() < 2.0
    assert b.true_edges == ((0, 1), (1, 0))


def test_henon_is_seed_deterministic():
    a = benchmark("henon", None, n=200, seed=9).panel
    b = benchmark("henon", None, n=200, seed=9).panel
    assert np.array_equal(a.values, b.values)


def test_unknown_benchmark_rejected():
    with pytest.raises(UsageError, match="unknown benchmark"):
        benchmark("lorenz", None, n=10, seed=0)


def test_unknown_benchmark_parameter_rejected():
    with pytest.raises(UsageError, match="parameter"):
        benchmark("one_way_2d", {"couplng": 1.0}, n=10, seed=0)


def test_benchmark_coupling_parameter_applied():
    b = benchmark("one_way_2d", {"coupling": 1.5}, n=50, seed=0)
    assert b.system.A[0, 1] == 1.5
    assert b.params["coupling"] == 1.5


def test_long_run_covariance_matches_lyapunov():
    b = benchmark("one_way_2d", None, n=200_000, seed=11)
    sample = np.cov(b.panel.values)
    S = stationary_covariance(b.system).matrix
    assert np.allclose(sample, S, rtol=0.08, atol=0.01)


def test_regime_switch_panel_shape_and_determinism():
    p1, switch = regime_switch_panel(5000, 2500, seed=4)
    p2, _ = regime_switch_panel(5000, 2500, seed=4)
    assert switch == 2500 and p1.n == 5000 and p1.labels == ("x", "y")
    assert np.array_equal(p1.values, p2.values)
    with pytest.raises(UsageError):
        regime_switch_panel(100, 100, seed=0)


def test_regime_switch_coupling_visible_in_second_half():
    panel, switch = regime_switch_panel(20_000, 10_000, coupling=2.0, dt=0.01, seed=0)
    first = np.corrcoef(panel.values[:, :switch])[0, 1]
    second = np.corrcoef(panel.values[:, switch:])[0, 1]
    assert abs(first) < 0.1
    assert second > 0.4


def test_regime_switch_matches_its_two_matrix_loop():
    # reference: the regime loop as a standalone recursion, the drift
    # coupling switched on after global step burn_in + switch_at
    n, switch, coupling, dt, burn_in = 20_000, 10_000, 2.0, 0.01, 10_000
    step_off = (np.eye(2) - np.eye(2) * dt).T.copy()
    step_on = (np.eye(2) + np.array([[-1.0, coupling], [0.0, -1.0]]) * dt).T.copy()
    for seed in range(50):
        rng = np.random.Generator(np.random.PCG64(seed))
        drive = rng.standard_normal((burn_in + n - 1, 2)) * np.sqrt(dt)
        traj = np.zeros((burn_in + n, 2))
        for m in range(1, burn_in + n):
            step = step_off if m <= burn_in + switch else step_on
            traj[m] = traj[m - 1] @ step + drive[m - 1]
        panel, _ = regime_switch_panel(n, switch, coupling=coupling, dt=dt, seed=seed)
        assert_round_off(panel.values, traj[burn_in:].T)


def test_scan_matches_step_loop_on_every_block_shape():
    # n - 1 steps run in blocks of L = 8 steps and the block ends are scanned
    # again on the next level; these lengths give one and two steps (a tail
    # and no block), one and two blocks with and without a partial tail, and
    # 255, 256 and 257 steps, where 256 = 4 L^2 leaves no partial tail on the
    # first two levels; nonzero f and x0, m != d. A single state (no step)
    # is no panel.
    lengths = (2, 3, 15, 16, 17, 18, 256, 257, 258)
    for d in range(1, 9):
        rng = make_rng(100 + d)
        for m in (d, d + 1, max(d - 1, 1)):
            base = random_stable_system(rng, d, m)
            sys = LinearSDE(f=rng.standard_normal(d), A=base.A, B=base.B)
            x0 = rng.standard_normal(d)
            for n in lengths:
                spec = SimulationSpec(system=sys, n=n, dt=0.05, seed=d * 1000 + n, burn_in=0, x0=x0)
                assert_round_off(euler_maruyama(spec).values, loop_oracle(spec))
            with pytest.raises(InsufficientDataError):
                euler_maruyama(SimulationSpec(system=sys, n=1, dt=0.05, seed=0, burn_in=0, x0=x0))
            # a burn-in shifts the kept states off the block grid
            spec = SimulationSpec(system=sys, n=300, dt=0.05, seed=d, burn_in=1234, x0=x0)
            assert_round_off(euler_maruyama(spec).values, loop_oracle(spec))


def test_unexcited_mode_stays_finite():
    # M = I + A dt = diag(0, -10): the second mode is never excited and stays
    # exactly 0; M^8 = diag(0, 1e8) is within the limit but its square is
    # not, so the second level falls back to the plain recursion
    sys = LinearSDE(f=np.zeros(2), A=np.diag([-1.0, -11.0]), B=np.diag([1.0, 0.0]))
    spec = SimulationSpec(system=sys, n=100_000, dt=1.0, seed=0, burn_in=0)
    panel = euler_maruyama(spec)
    assert np.isfinite(panel.values).all()
    assert not panel.values[1].any()
    assert_round_off(panel.values, loop_oracle(spec))


def test_scan_matches_step_loop_around_block_powers():
    # L, L^2 and L^3 steps fill every level's blocks exactly; one step fewer
    # or more leaves a partial tail at some level
    L = _SCAN_BLOCK
    steps = [p + e for p in (L, L**2, L**3) for e in (-1, 0, 1)]
    for d in (1, 3, 8):
        rng = make_rng(200 + d)
        base = random_stable_system(rng, d, d)
        sys = LinearSDE(f=rng.standard_normal(d), A=base.A, B=base.B)
        x0 = rng.standard_normal(d)
        for s in steps:
            spec = SimulationSpec(system=sys, n=s + 1, dt=0.05, seed=d * 1000 + s, burn_in=0, x0=x0)
            assert_round_off(euler_maruyama(spec).values, loop_oracle(spec))


@pytest.mark.parametrize("growth, block", [(30.0, _SCAN_BLOCK), (100.0, 6), (1e7, 1)])
def test_scan_falls_back_where_powers_pass_the_limit(growth, block):
    # M = diag(0.9, growth) with the second mode unexcited: 30^8 passes the
    # limit but 30^16 does not, so the second level runs the plain
    # recursion; 100^6 = 1e12 makes blocks of 6; 1e7 leaves no block at all
    assert growth**block <= 1e12 < growth ** (block + 1)
    sys = LinearSDE(f=np.zeros(2), A=np.diag([-0.1, growth - 1.0]), B=np.diag([1.0, 0.0]))
    for n in (2, block + 2, 100, 1000):
        spec = SimulationSpec(system=sys, n=n, dt=1.0, seed=n, burn_in=0, x0=[1.0, 0.0])
        panel = euler_maruyama(spec)
        assert not panel.values[1].any()
        assert_round_off(panel.values, loop_oracle(spec))


def test_scan_memory_stays_within_its_gemm_budget():
    # an unchunked GEMM would hold a second trajectory; the scan holds the
    # block starts of every level (under 1/(L - 1) of the trajectory), one
    # GEMM product of at most _SCAN_BUDGET elements and a few copies of T
    d, n, L = 8, 100_000, _SCAN_BLOCK
    x = make_rng(17).standard_normal((n + 1, d))
    M = np.eye(d) - 0.01 * (np.eye(d) + np.tri(d, k=-1))
    tracemalloc.start()
    try:
        _affine_scan(x, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes / (L - 1) + 8 * (_SCAN_BUDGET + 4 * (L * d) ** 2)


def test_euler_maruyama_memory_stays_within_trajectory_and_panel():
    # the whole call peaks where the panel takes a C-contiguous copy of the
    # kept states and a finiteness mask of it, beside the trajectory; the
    # noise draw and the scan stay below that
    d, n, burn_in = 8, 100_000, 10_000
    sys = LinearSDE(f=np.zeros(d), A=-np.eye(d) - 0.5 * np.tri(d, k=-1), B=np.eye(d))
    spec = SimulationSpec(system=sys, n=n, dt=0.01, seed=1, burn_in=burn_in)
    tracemalloc.start()
    try:
        euler_maruyama(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trajectory, panel = 8 * (burn_in + n) * d, 8 * n * d
    assert peak <= trajectory + panel + panel / 8 + 8 * _SCAN_BUDGET


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        SimulationSpec(system=decay_system(), n=10, dt=0.1, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        benchmark("chain_3", n=10, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        benchmark("henon", n=10, seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        regime_switch_panel(100, 50, seed=-2)


def test_simulate_system_reads_edges_off_the_drift():
    sys = LinearSDE(f=np.zeros(3), A=[[-1.0, 0.0, 0.3], [0.2, -1.0, 0.0], [0.0, -0.4, -1.0]], B=np.eye(3))
    r = simulate_system(sys, None, n=100, seed=2)
    assert r.name is None
    assert r.true_edges == ((0, 1), (1, 2), (2, 0))  # (source, target), A[target, source] != 0
    assert r.params == {"dt": 0.01, "burn_in": 10_000}
    assert r.panel.labels == ("x1", "x2", "x3")
    spec = SimulationSpec(system=sys, n=100, dt=0.01, seed=2)
    assert np.array_equal(r.panel.values, euler_maruyama(spec).values)
    with pytest.raises(UsageError, match="coupling"):
        simulate_system(sys, {"coupling": 0.5}, n=100, seed=2)


def test_benchmark_edges_follow_the_coupling():
    for name in ("one_way_2d", "chain_3", "confounder_3"):
        assert benchmark(name, {"coupling": 0.0}, n=50, seed=0).true_edges == ()
    assert benchmark("one_way_2d", {"coupling": -0.3}, n=50, seed=0).true_edges == ((1, 0),)


def test_independent_d_takes_no_coupling():
    b = benchmark("independent_d", {"d": 3}, n=50, seed=1)
    assert b.params == {"noise": 1.0, "dt": 0.01, "burn_in": 10_000, "d": 3}
    with pytest.raises(UsageError, match="coupling"):
        benchmark("independent_d", {"d": 3, "coupling": 3.0}, n=50, seed=1)
