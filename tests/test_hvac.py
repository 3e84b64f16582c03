import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdflow import (
    IntegratorOptions,
    ThermalNetwork,
    TouSchedule,
    WelfareParams,
    active_set_oracle,
    build_hvac_system,
    build_welfare_problem,
    composed_vector_field,
    full_state,
    positive_projection,
    run_tou_scenario,
    simulate,
    steady_state_constraint,
    synth_internal_load,
)
from pdflow.hvac import IntervalConvergenceError


def table_network(d=0.5):
    return ThermalNetwork(C=9.2, R_zone=np.zeros((4, 4)), R_amb=[11.5] * 4,
                          T_inf=30.0, d=[d] * 4, theta=3.0)


def table_params(rho1=0.5):
    return WelfareParams(gamma=1.0, T_ref=20.5, b_util=40.0, rho=(rho1, 0.0, 0.0),
                         T_min=18.0, T_max=24.0)


def test_steady_state_constraint_single_zone_values():
    net = ThermalNetwork(C=[9.2], R_zone=np.zeros((1, 1)), R_amb=[11.5],
                         T_inf=30.0, d=[0.5], theta=3.0)
    A, b = steady_state_constraint(net)
    assert A[0, 0] == pytest.approx(-3.0 / 11.5)
    assert b == pytest.approx(3.0 * (30.0 / 11.5 + 0.5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_steady_state_constraint_ignores_zone_coupling(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 6))
    W = rng.uniform(1.0, 30.0, size=(N, N))
    R_zone = np.triu(W, 1) + np.triu(W, 1).T
    base = dict(C=np.ones(N), R_amb=rng.uniform(5, 20, N), T_inf=30.0,
                d=rng.uniform(0, 1, N), theta=3.0)
    A1, b1 = steady_state_constraint(ThermalNetwork(R_zone=np.zeros((N, N)), **base))
    A2, b2 = steady_state_constraint(ThermalNetwork(R_zone=R_zone, **base))
    assert np.array_equal(A1, A2) and b1 == b2


def test_constraint_scales_linearly_with_theta():
    # theta = 0 would degenerate the constraint to 0 = 0; the network type
    # requires theta > 0, so the scaling is checked by linearity instead
    base = dict(C=[9.2], R_zone=np.zeros((1, 1)), R_amb=[11.5], T_inf=30.0, d=[0.5])
    A1, b1 = steady_state_constraint(ThermalNetwork(theta=1.0, **base))
    A3, b3 = steady_state_constraint(ThermalNetwork(theta=3.0, **base))
    assert np.allclose(3.0 * A1, A3) and 3.0 * b1 == pytest.approx(b3)
    with pytest.raises(ValueError):
        ThermalNetwork(theta=0.0, **base)


def test_welfare_problem_shape_and_hessian():
    prob = build_welfare_problem(table_network(), table_params())
    assert (prob.n, prob.m, prob.p) == (5, 1, 8)
    H = prob.objective.hess(np.zeros(5))
    assert np.allclose(H, np.diag([2.0, 2.0, 2.0, 2.0, 1.0]))  # diag(2 gamma, 2 rho1)


def test_welfare_objective_table_generation_cost():
    # rho = (0.5, 0, 0): supply cost contributes exactly 0.5 q^2
    prob = build_welfare_problem(table_network(), table_params())
    T_ref = np.full(4, 20.5)
    at_q = lambda q: prob.objective.value(np.concatenate([T_ref, [q]]))
    assert at_q(3.0) - at_q(0.0) == pytest.approx(0.5 * 9.0)


def test_single_zone_interior_optimum_matches_oracle():
    net = ThermalNetwork(C=[9.2], R_zone=np.zeros((1, 1)), R_amb=[11.5],
                         T_inf=30.0, d=[0.5], theta=3.0)
    par = WelfareParams(gamma=[1.0], T_ref=[20.5], b_util=[40.0], rho=(0.5, 0.0, 0.0),
                        T_min=[-100.0], T_max=[100.0])  # bounds far away
    hs = build_hvac_system(net, par)
    oracle = active_set_oracle(hs.problem)
    assert np.all(oracle.mu == 0.0)
    # interior saddle: stationarity through the equality alone
    grad = hs.problem.objective.grad(oracle.x)
    A = hs.problem.equality.A
    assert np.allclose(grad + A.T @ oracle.lam, 0.0, atol=1e-10)


def reference_welfare_field(net, par, T, q, lam, mu_low, mu_high,
                            tau_T=1.0, tau_q=1.0, tau_lam=1.0, tau_mu=1.0):
    """Specialized closed form of the welfare dynamics, kept independent of
    the composed implementation on purpose."""
    A, b = steady_state_constraint(net)
    a = A[0]
    grad_U_T = -2.0 * par.gamma * (T - par.T_ref)
    T_dot = (grad_U_T - a * lam + mu_low - mu_high) / tau_T
    q_dot = (-(2.0 * par.rho[0] * q + par.rho[1]) + lam) / tau_q
    lam_dot = (a @ T + b - q) / tau_lam
    low_dot = np.array(
        [positive_projection(par.T_min[i] - T[i], mu_low[i]) for i in range(T.size)]
    ) / tau_mu
    high_dot = np.array(
        [positive_projection(T[i] - par.T_max[i], mu_high[i]) for i in range(T.size)]
    ) / tau_mu
    return T_dot, q_dot, lam_dot, low_dot, high_dot


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vector_field_matches_specialized_form(seed):
    rng = np.random.default_rng(seed)
    net = table_network()
    par = table_params().broadcast(4)
    hs = build_hvac_system(net, par)
    T = rng.uniform(17.0, 25.0, 4)
    q = rng.uniform(5.0, 20.0)
    lam = rng.uniform(-5.0, 20.0)
    mu_low = rng.uniform(0.0, 2.0, 4)
    mu_high = rng.uniform(0.0, 2.0, 4)
    mu_low[rng.random(4) < 0.3] = 0.0
    mu_high[rng.random(4) < 0.3] = 0.0
    state = full_state(hs.composed, np.concatenate([T, [q]]), [lam],
                       np.concatenate([mu_low, mu_high]))
    x_dot, lam_dot, mu_dot = composed_vector_field(hs.composed, state)
    got = (x_dot[:4], float(x_dot[4]), lam_dot, mu_dot[:4], mu_dot[4:])
    want = reference_welfare_field(net, par, T, q, lam, mu_low, mu_high)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12
    assert got[1] == pytest.approx(want[1], abs=1e-12)
    assert np.max(np.abs(got[2] - want[2])) <= 1e-12
    assert np.max(np.abs(got[3] - want[3])) <= 1e-12
    assert np.max(np.abs(got[4] - want[4])) <= 1e-12


def test_four_zone_equilibrium_quality():
    hs = build_hvac_system(table_network(), table_params())
    oracle = active_set_oracle(hs.problem)
    st0 = full_state(hs.composed, np.array([23.5, 23.0, 22.7, 22.4, 10.0]),
                     [0.0], np.ones(8))
    opts = IntegratorOptions(horizon=40.0, dt_max=0.05, record_stride=0.5, rtol=1e-9)
    traj = simulate(hs.composed, st0, opts)
    end = traj.final_state
    T_end, q_end = end.x[:4], end.x[4]
    assert np.all(T_end >= 18.0) and np.all(T_end <= 24.0)
    A, b = steady_state_constraint(table_network())
    assert abs(A[0] @ T_end + b - q_end) <= 1e-6
    g_end = hs.problem.ineq_values(end.x)
    assert np.max(np.abs(end.mu * g_end)) <= 1e-6
    assert np.max(np.abs(end.x - oracle.x)) <= 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_aggregate_cooling_load_equals_supply_over_theta(seed):
    from pdflow import zone_cooling_loads
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    W = rng.uniform(5.0, 30.0, size=(N, N))
    R_zone = np.triu(W, 1) + np.triu(W, 1).T
    net = ThermalNetwork(C=np.ones(N), R_zone=R_zone, R_amb=rng.uniform(5, 20, N),
                         T_inf=30.0, d=rng.uniform(0, 1, N), theta=3.0)
    T = rng.uniform(18.0, 26.0, N)
    A, b = steady_state_constraint(net)
    q = float(A[0] @ T + b)
    assert np.sum(zone_cooling_loads(net, T)) == pytest.approx(q / net.theta)


def test_inactive_bounds_match_unconstrained_saddle():
    # the four-zone optimum is interior, so dropping the bounds entirely
    # yields the same primal-dual point
    hs = build_hvac_system(table_network(), table_params())
    with_bounds = active_set_oracle(hs.problem)
    without = active_set_oracle(hs.problem.equality_part())
    assert np.allclose(with_bounds.x, without.x, atol=1e-10)
    assert np.allclose(with_bounds.lam, without.lam, atol=1e-10)
    assert np.all(with_bounds.mu == 0.0)


def test_synth_internal_load_profile():
    base = np.full(4, 0.5)
    night = synth_internal_load(3.0, 2.0, 3.0, base)
    assert night == pytest.approx(base)
    noon = synth_internal_load(12.0, 2.0, 3.0, base)
    assert np.all(noon > base)
    assert noon == pytest.approx(base + (2.0 + 3.0) / 4)
    flat = synth_internal_load(12.0, 0.0, 0.0, base)
    assert flat == pytest.approx(base)


def test_tou_schedule_validation_and_lookup():
    tou = TouSchedule(hours=[0.0, 9.0, 17.0, 24.0], prices=[1.0, 3.0, 1.0])
    assert tou.price_at(0.0) == 1.0
    assert tou.price_at(9.0) == 3.0
    assert tou.price_at(23.9) == 1.0
    with pytest.raises(ValueError):
        TouSchedule(hours=[0.0, 9.0, 23.0], prices=[1.0, 2.0])  # gap before 24
    with pytest.raises(ValueError):
        TouSchedule(hours=[1.0, 24.0], prices=[1.0])  # gap after 0
    with pytest.raises(ValueError):
        TouSchedule(hours=[0.0, 24.0], prices=[-1.0])


def test_run_tou_scenario_constant_price_is_time_invariant():
    tou = TouSchedule(hours=[0.0, 12.0, 24.0], prices=[1.0, 1.0])
    day = run_tou_scenario(table_network(), table_params(), tou,
                           opts=IntegratorOptions(horizon=50.0, dt_max=0.1,
                                                  record_stride=1.0, rtol=1e-9))
    q_vals = [iv.q_star for iv in day.intervals]
    assert q_vals[0] == pytest.approx(q_vals[1], abs=1e-6)
    T_all = np.array([iv.T_star for iv in day.intervals])
    assert np.all(np.abs(T_all - 22.326955) < 1e-3)


def test_run_tou_scenario_surge_reduces_supply_and_moves_temperatures():
    tou = TouSchedule(hours=[0.0, 8.0, 16.0, 24.0], prices=[1.0, 3.0, 1.0])
    day = run_tou_scenario(table_network(), table_params(), tou,
                           opts=IntegratorOptions(horizon=50.0, dt_max=0.1,
                                                  record_stride=1.0, rtol=1e-9))
    flat0, surge, flat1 = day.intervals
    assert surge.q_star < flat0.q_star and surge.q_star < flat1.q_star
    # comfort traded away: temperatures move off the reference, within bounds
    dev_surge = np.max(np.abs(surge.T_star - 20.5))
    dev_flat = np.max(np.abs(flat0.T_star - 20.5))
    assert dev_surge > dev_flat
    assert np.all(surge.T_star <= 24.0 + 1e-9)
    # each interval optimum agrees with its oracle
    for iv in day.intervals:
        assert np.max(np.abs(np.concatenate([iv.T_star, [iv.q_star]]) - iv.oracle.x)) <= 1e-4


def test_run_tou_scenario_failure_carries_interval_index():
    tou = TouSchedule(hours=[0.0, 24.0], prices=[1.0])
    tight = IntegratorOptions(horizon=1.0, dt_max=0.1, record_stride=0.1, rtol=1e-9)
    with pytest.raises(IntervalConvergenceError) as info:
        run_tou_scenario(table_network(), table_params(), tou, opts=tight,
                         settle_tau_multiple=1.0)
    assert info.value.index == 0
