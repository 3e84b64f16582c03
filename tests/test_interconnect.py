import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdflow import (
    IntegratorOptions,
    KktPoint,
    active_set_oracle,
    bm_vector_field,
    compose,
    composed_vector_field,
    full_state,
    kkt_residual,
    quadratic_problem,
    simulate,
)
from pdflow.integrator import trajectory_columns

from conftest import random_qp_instance

SCALAR_INEQ = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])


def scalar_sys():
    return compose(SCALAR_INEQ, [1.0], [], [1.0])


def state_columns(sys, state, v=None, v_dot=None):
    """The derived columns of a single state, one sample long."""
    D = np.concatenate(composed_vector_field(sys, state, v))[None]
    VD = None if v_dot is None else np.atleast_2d(v_dot)
    cols = trajectory_columns(sys, state.x[None], state.mu[None], D, VD)
    return {name: col[0] for name, col in cols.items()}


def test_equilibrium_at_oracle_point():
    sys = scalar_sys()
    oracle = active_set_oracle(SCALAR_INEQ)
    st_ = full_state(sys, oracle.x, oracle.lam, oracle.mu)
    xd, ld, md = composed_vector_field(sys, st_)
    assert np.max(np.abs(xd)) <= 1e-12
    assert md == pytest.approx([0.0])


def test_reduces_to_bm_field_when_mu_zero():
    prob = quadratic_problem(
        [[2.0, 0.3], [0.3, 2.0]], [-1.0, 0.5], A_eq=[[1.0, 1.0]], b_eq=[-2.0],
        G=[[1.0, 0.0]], d=[-5.0],
    )
    sys = compose(prob, [1.0, 1.0], [1.0], [1.0])
    x, lam = np.array([0.3, -0.8]), np.array([0.7])
    st_ = full_state(sys, x, lam, [0.0])
    assert np.all(sys.proj.values(x) < 0)
    xd, ld, md = composed_vector_field(sys, st_)
    bx, bl = bm_vector_field(sys.bm, x, lam)
    assert np.array_equal(xd, bx) and np.array_equal(ld, bl)
    assert md == pytest.approx([0.0])


def test_direct_substitution_example():
    sys = scalar_sys()
    st_ = full_state(sys, [0.0], mu=[0.0])
    xd, ld, md = composed_vector_field(sys, st_)
    assert xd == pytest.approx([4.0])
    assert md == pytest.approx([0.0])  # g(0) = -1 < 0 with mu = 0: clamped
    assert st_.sigma == frozenset({0})


def test_composite_storage_cases():
    sys = scalar_sys()
    oracle = active_set_oracle(SCALAR_INEQ)
    st_eq = full_state(sys, oracle.x, oracle.lam, oracle.mu)
    assert state_columns(sys, st_eq)["s_tilde"] == pytest.approx(0.0, abs=1e-20)

    st_off = full_state(sys, [0.0], mu=[0.0])
    val = state_columns(sys, st_off)["s_tilde"]
    # mu clamped: only the Krasovskii part contributes, 0.5 * 4^2
    assert val == pytest.approx(8.0)


def test_port_power_zero_at_equilibrium_and_constant_v():
    sys = scalar_sys()
    oracle = active_set_oracle(SCALAR_INEQ)
    st_eq = full_state(sys, oracle.x, oracle.lam, oracle.mu)
    pw = state_columns(sys, st_eq)
    assert pw["power_eq"] == pytest.approx(0.0, abs=1e-15)
    assert pw["power_ineq"] == pytest.approx(0.0, abs=1e-15)
    assert pw["power_ext"] == 0.0

    st_off = full_state(sys, [0.0], mu=[0.5])
    pw = state_columns(sys, st_off, v=np.array([0.3]))  # v constant: no external term
    assert pw["power_ext"] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_port_powers_conserve(seed):
    # equality-port + inequality-port power must equal the external port power
    rng = np.random.default_rng(seed)
    problem, x0 = random_qp_instance(rng)
    if problem.p == 0:
        return
    sys = compose(problem, np.ones(problem.n), np.ones(problem.m), np.ones(problem.p))
    st_ = full_state(sys, x0 + rng.normal(size=problem.n), np.zeros(problem.m),
                     rng.uniform(0, 1, problem.p))
    v_dot = rng.normal(size=problem.n)
    pw = state_columns(sys, st_, v=rng.normal(size=problem.n), v_dot=v_dot)
    assert pw["power_eq"] + pw["power_ineq"] == pytest.approx(pw["power_ext"], rel=1e-12,
                                                             abs=1e-12)


def test_forced_composite_storage_bounded_by_external_port():
    # over any sample span, S_tilde may gain at most the external-port energy
    sys = scalar_sys()
    v = lambda t: np.array([3.0 * np.sin(0.7 * t)])
    v_dot = lambda t: np.array([2.1 * np.cos(0.7 * t)])
    opts = IntegratorOptions(horizon=40.0, dt_max=0.02, record_stride=0.02, rtol=1e-10)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.0]), opts, v=v, v_dot=v_dot)
    scale = max(np.abs(traj.s_tilde).max(), np.abs(traj.power_ext).max())
    worst = -np.inf
    for a in range(0, len(traj) - 1, 50):
        for b in range(a + 1, len(traj), 97):
            supplied = np.trapezoid(traj.power_ext[a : b + 1], traj.times[a : b + 1])
            worst = max(worst, traj.s_tilde[b] - traj.s_tilde[a] - supplied)
    assert worst <= 1e-5 * scale  # trapezoid quadrature budget


def test_settled_equilibria_are_kkt_points():
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem, x0 = random_qp_instance(rng)
        sys = compose(problem, np.ones(problem.n), np.ones(problem.m),
                      np.ones(problem.p))
        st0 = full_state(sys, x0, np.zeros(problem.m), rng.uniform(0, 1, problem.p))
        traj = simulate(sys, st0, IntegratorOptions(horizon=80.0, dt_max=0.2,
                                                    record_stride=5.0, rtol=1e-9))
        end = traj.final_state
        res = kkt_residual(problem, KktPoint(end.x, end.lam, end.mu))
        assert res.max_defect <= 1e-8


def test_dimension_validation():
    from pdflow import BmSystem, ProjectionSystem, AffineScalar, ComposedSystem
    bm = BmSystem(quadratic_problem([[2.0]], [0.0]), [1.0], [])
    proj = ProjectionSystem((AffineScalar([1.0, 0.0], 0.0),), [1.0], 2)
    with pytest.raises(ValueError):
        ComposedSystem(quadratic_problem([[2.0]], [0.0]), bm, proj)
