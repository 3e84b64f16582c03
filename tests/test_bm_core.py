import numpy as np
import pytest

from pdflow import (
    BmSystem,
    IntegratorOptions,
    active_set_oracle,
    bm_vector_field,
    compose,
    full_state,
    krasovskii_storage,
    mixed_potential,
    quadratic_problem,
    simulate,
    storage_rate,
)

SCALAR = quadratic_problem([[2.0]], [-4.0], 4.0)  # (x-2)^2
EQ_QP = quadratic_problem(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[-2.0])


def scalar_sys(tau=1.0):
    return BmSystem(SCALAR, [tau], [])


def test_vector_field_examples():
    sys = scalar_sys()
    xd, ld = bm_vector_field(sys, np.array([0.0]), np.zeros(0))
    assert xd == pytest.approx([4.0])
    xd, _ = bm_vector_field(sys, np.array([2.0]), np.zeros(0))
    assert xd == pytest.approx([0.0])

    sys2 = BmSystem(EQ_QP, np.ones(2), np.ones(1))
    xd, ld = bm_vector_field(sys2, np.array([1.0, 1.0]), np.array([-2.0]))
    assert np.allclose(xd, 0.0) and np.allclose(ld, 0.0)


def test_vector_field_rejects_inequalities():
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    with pytest.raises(ValueError):
        BmSystem(prob, [1.0], [])


def test_mixed_potential_examples():
    assert mixed_potential(scalar_sys(), np.array([0.0]), np.zeros(0)) == pytest.approx(4.0)
    sys2 = BmSystem(EQ_QP, np.ones(2), np.ones(1))
    assert mixed_potential(sys2, np.array([1.0, 1.0]), np.array([-2.0])) == pytest.approx(2.0)
    # indefinite: negative value away from the feasible set
    assert mixed_potential(sys2, np.array([0.0, 0.0]), np.array([1.0])) == pytest.approx(-2.0)


def test_krasovskii_storage_examples():
    assert krasovskii_storage(scalar_sys(), np.zeros(1), np.zeros(0)) == 0.0
    assert krasovskii_storage(scalar_sys(tau=2.0), np.array([1.0]), np.zeros(0)) == pytest.approx(1.0)
    sys2 = BmSystem(EQ_QP, np.ones(2), np.ones(1))
    val = krasovskii_storage(sys2, np.array([1.0, 1.0]), np.array([2.0]))
    assert val == pytest.approx(3.0)


def test_storage_rate_examples():
    sys = scalar_sys()
    assert storage_rate(sys, np.array([2.0]), np.zeros(0)) == pytest.approx(0.0)
    # xdot = 4 at x = 0, hess = 2: rate = -4*2*4 = -32
    assert storage_rate(sys, np.array([0.0]), np.zeros(0)) == pytest.approx(-32.0)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-3, 3, 1)
        assert storage_rate(sys, x, np.zeros(0)) <= 0.0


def test_storage_rate_matches_finite_difference_of_storage():
    # monotone scalar flow: the rate never vanishes, so a plain relative
    # comparison at step 1e-3 is well conditioned
    sys = compose(SCALAR, [1.0], [], np.zeros(0))
    opts = IntegratorOptions(horizon=1.0, dt_max=1e-3, record_stride=1e-3, rtol=1e-10, atol=1e-12)
    traj = simulate(sys, full_state(sys, [0.0]), opts)
    t, p = traj.times, traj.p_tilde
    for k in range(5, len(t) - 5, 29):
        fd = (p[k + 1] - p[k - 1]) / (t[k + 1] - t[k - 1])
        analytic = storage_rate(sys.bm, traj.x[k], traj.lam[k])
        assert fd == pytest.approx(analytic, rel=1e-4)

    # oscillatory saddle: the rate touches zero periodically, so compare
    # against the rate scale of the run rather than pointwise magnitude
    sys2 = compose(EQ_QP, np.ones(2), np.ones(1), np.zeros(0))
    traj2 = simulate(sys2, full_state(sys2, [0.0, 0.0], [0.0]), opts)
    t2, p2 = traj2.times, traj2.p_tilde
    rates = np.array([storage_rate(sys2.bm, traj2.x[k], traj2.lam[k])
                      for k in range(len(t2))])
    scale = np.abs(rates).max()
    for k in range(5, len(t2) - 5, 29):
        fd = (p2[k + 1] - p2[k - 1]) / (t2[k + 1] - t2[k - 1])
        assert abs(fd - rates[k]) <= 1e-4 * scale


def test_unforced_storage_nonincreasing_along_flow():
    sys = compose(EQ_QP, np.ones(2), np.ones(1), np.zeros(0))
    opts = IntegratorOptions(horizon=10.0, dt_max=0.05, record_stride=0.05, rtol=1e-9)
    traj = simulate(sys, full_state(sys, [3.0, -1.0], [0.5]), opts)
    assert np.all(np.diff(traj.p_tilde) <= 1e-10 * max(1.0, traj.p_tilde.max()))


def test_passivity_integral_with_forced_input():
    # piecewise-smooth u through the composed run's v channel (p = 0 so u = v)
    sys = compose(EQ_QP, np.ones(2), np.ones(1), np.zeros(0))
    v = lambda t: np.array([0.4 * np.sin(t), 0.2 * np.cos(2 * t)])
    v_dot = lambda t: np.array([0.4 * np.cos(t), -0.4 * np.sin(2 * t)])
    opts = IntegratorOptions(horizon=8.0, dt_max=0.01, record_stride=0.01, rtol=1e-10)
    traj = simulate(sys, full_state(sys, [2.0, 0.0], [1.0]), opts, v=v, v_dot=v_dot)
    # supplied power at the differentiated port: udot' ydot = -vdot' xdot
    supplied = np.trapezoid(traj.power_ext, traj.times)
    gained = traj.p_tilde[-1] - traj.p_tilde[0]
    assert gained <= supplied + 1e-6 * max(1.0, abs(supplied))


def test_equilibria_match_oracle_kkt_points():
    oracle = active_set_oracle(EQ_QP)
    sys2 = BmSystem(EQ_QP, np.ones(2), np.ones(1))
    xd, ld = bm_vector_field(sys2, oracle.x, oracle.lam)
    assert np.max(np.abs(np.concatenate([xd, ld]))) <= 1e-12
    # a non-KKT point is not an equilibrium
    xd, ld = bm_vector_field(sys2, oracle.x + 0.1, oracle.lam)
    assert np.max(np.abs(np.concatenate([xd, ld]))) > 1e-3


def test_tau_validation():
    with pytest.raises(ValueError):
        BmSystem(SCALAR, [-1.0], [])
    with pytest.raises(ValueError):
        BmSystem(SCALAR, np.array([[1.0, 2.0], [0.0, 1.0]])[:1, :1] * 0.0, [])
