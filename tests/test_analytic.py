import numpy as np
import pytest

from infoflow import (
    LinearSDE,
    analytic_flow,
    load_system,
    stationary_covariance,
    transform_other_components,
)
from infoflow.errors import (
    ConditioningWarning,
    DataError,
    DegenerateComponentError,
    InvalidTransformError,
    NonStationaryError,
    UsageError,
    ValidationError,
)
from conftest import make_rng, random_stable_system

ONE_WAY = LinearSDE(f=[0.0, 0.0], A=[[-1.0, 0.5], [0.0, -1.0]], B=np.eye(2))


def test_lyapunov_hand_solved_2x2():
    # scalar equations of A S + S A' + I = 0 solved by hand:
    # s22 = 1/2, s12 = s22/4 = 1/8, s11 = (1 + s12)/2 = 9/16
    S = stationary_covariance(ONE_WAY)
    assert np.allclose(S.matrix, [[0.5625, 0.125], [0.125, 0.5]], rtol=0, atol=1e-12)
    assert S.residual < 1e-10


def test_lyapunov_decoupled_ou_components():
    for d in (1, 3, 6):
        sys = LinearSDE(f=np.zeros(d), A=-np.eye(d), B=np.eye(d))
        S = stationary_covariance(sys)
        assert np.allclose(S.matrix, 0.5 * np.eye(d), atol=1e-12)


def test_lyapunov_zero_noise_gives_zero_covariance():
    sys = LinearSDE(f=[0.0], A=[[-2.0]], B=[[0.0]])
    S = stationary_covariance(sys)
    assert np.allclose(S.matrix, 0.0, atol=1e-15)


def test_lyapunov_residual_on_random_stable_systems():
    for seed in range(30):
        sys = random_stable_system(make_rng(seed), d=2 + seed % 7)
        S = stationary_covariance(sys)
        G = sys.noise_covariance()
        resid = np.abs(sys.A @ S.matrix + S.matrix @ sys.A.T + G).max()
        assert resid < 1e-10 * max(1.0, np.abs(G).max())


def test_non_hurwitz_rejected():
    sys = LinearSDE(f=[0.0, 0.0], A=[[1.0, 0.0], [0.0, -1.0]], B=np.eye(2))
    assert not sys.is_hurwitz()
    with pytest.raises(NonStationaryError):
        stationary_covariance(sys)


def test_marginally_stable_rejected():
    sys = LinearSDE(f=[0.0], A=[[0.0]], B=[[1.0]])
    with pytest.raises(NonStationaryError):
        stationary_covariance(sys)


def test_near_cancelling_eigenvalues_warn():
    # eigenvalues -1e-9 +/- i: barely damped rotation, conjugate pair sums
    # nearly cancel and the Kronecker-sum solve loses most of its digits
    sys = LinearSDE(f=[0.0, 0.0], A=[[-1e-9, 1.0], [-1.0, -1e-9]], B=np.eye(2))
    with pytest.warns(ConditioningWarning):
        try:
            stationary_covariance(sys)
        except NonStationaryError:
            pass


def test_analytic_flow_example_value():
    S = stationary_covariance(ONE_WAY)
    assert analytic_flow(ONE_WAY, S, source=1, target=0) == pytest.approx(1 / 9, rel=1e-12)
    # reverse direction: the second component does not depend on the first
    assert analytic_flow(ONE_WAY, S, source=0, target=1) == 0.0


def test_analytic_flow_diagonal_drift_all_zero():
    sys = LinearSDE(f=np.zeros(3), A=np.diag([-1.0, -2.0, -0.5]), B=np.eye(3))
    S = stationary_covariance(sys)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert analytic_flow(sys, S, source=j, target=i) == 0.0


def test_zero_coupling_means_zero_flow_exactly():
    for seed in range(20):
        sys = random_stable_system(make_rng(4000 + seed), d=4)
        A = sys.A.copy()
        A[1, 2] = 0.0
        sys = LinearSDE(f=sys.f, A=A, B=sys.B)
        S = stationary_covariance(sys)
        assert analytic_flow(sys, S, source=2, target=1) == 0.0


def test_common_driver_correlation_without_causation():
    # x3 drives x1 and x2; they correlate yet neither causes the other
    c = 0.7
    sys = LinearSDE(
        f=np.zeros(3),
        A=[[-1.0, 0.0, c], [0.0, -1.0, c], [0.0, 0.0, -1.0]],
        B=np.eye(3),
    )
    S = stationary_covariance(sys)
    assert S.matrix[0, 1] > 1e-3
    assert analytic_flow(sys, S, source=1, target=0) == 0.0
    assert analytic_flow(sys, S, source=0, target=1) == 0.0
    assert analytic_flow(sys, S, source=2, target=0) != 0.0


def test_degenerate_component_error():
    sys = LinearSDE(f=[0.0, 0.0], A=-np.eye(2), B=np.zeros((2, 2)))
    S = stationary_covariance(sys)
    with pytest.raises(DegenerateComponentError):
        analytic_flow(sys, S, source=1, target=0)


def test_transform_identity_returns_same_system():
    sys = random_stable_system(make_rng(42), d=4)
    out = transform_other_components(sys, 0, 1, np.eye(2))
    assert np.allclose(out.A, sys.A, atol=1e-12)
    assert np.allclose(out.B, sys.B, atol=1e-12)
    assert np.allclose(out.f, sys.f, atol=1e-12)


def test_flow_invariant_under_scalar_transform_d3():
    for seed in range(25):
        rng = make_rng(5000 + seed)
        sys = random_stable_system(rng, d=3)
        c = float(rng.uniform(0.2, 5.0)) * (1 if rng.random() < 0.5 else -1)
        base = analytic_flow(sys, stationary_covariance(sys), source=1, target=0)
        out = transform_other_components(sys, 0, 1, np.array([[c]]))
        got = analytic_flow(out, stationary_covariance(out), source=1, target=0)
        assert got == pytest.approx(base, rel=1e-10, abs=1e-12)


def test_flow_invariant_under_3x3_transform_d5():
    for seed in range(100):
        rng = make_rng(6000 + seed)
        sys = random_stable_system(rng, d=5)
        M = rng.standard_normal((3, 3))
        while np.linalg.cond(M) > 50:
            M = rng.standard_normal((3, 3))
        base = analytic_flow(sys, stationary_covariance(sys), source=1, target=0)
        out = transform_other_components(sys, 0, 1, M)
        got = analytic_flow(out, stationary_covariance(out), source=1, target=0)
        assert got == pytest.approx(base, rel=1e-10, abs=1e-12)


def test_singular_transform_rejected():
    sys = random_stable_system(make_rng(1), d=4)
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(InvalidTransformError):
        transform_other_components(sys, 0, 1, M)


def test_transform_needs_three_components():
    sys = random_stable_system(make_rng(2), d=2)
    with pytest.raises(UsageError):
        transform_other_components(sys, 0, 1, np.eye(0))


def test_system_shape_validation():
    with pytest.raises(ValidationError):
        LinearSDE(f=[0.0], A=[[-1.0, 0.0]], B=[[1.0]])
    with pytest.raises(ValidationError):
        LinearSDE(f=[0.0, 0.0], A=-np.eye(2), B=np.ones((3, 1)))
    with pytest.raises(ValidationError):
        LinearSDE(f=[np.nan], A=[[-1.0]], B=[[1.0]])


def test_load_system_from_json_text_and_file(tmp_path):
    text = '{"f": [0, 0], "A": [[-1, 0.5], [0, -1]], "B": [[1, 0], [0, 1]]}'
    sys = load_system(text)
    assert np.array_equal(sys.A, ONE_WAY.A)
    path = tmp_path / "sys.json"
    path.write_text(text)
    sys2 = load_system(path)
    assert np.array_equal(sys2.B, np.eye(2))


def test_load_system_malformed_text_and_file_raise_the_same_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    messages = []
    for source in ("{bad", path):
        with pytest.raises(DataError, match="^invalid system JSON: ") as caught:
            load_system(source)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_load_system_missing_field(tmp_path):
    with pytest.raises(ValidationError, match="'B'"):
        load_system('{"f": [0], "A": [[-1]]}')
