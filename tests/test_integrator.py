import hashlib
import runpy

import numpy as np
import pytest

from pdflow import (
    AffineMap,
    AffineScalar,
    ConvexProblem,
    DivergenceError,
    EventIsolationError,
    FullState,
    IntegratorOptions,
    ProjectionSystem,
    Quadratic,
    QuadraticScalar,
    SmoothScalar,
    compose,
    composed_vector_field,
    compute_sigma,
    concat_trajectories,
    full_state,
    krasovskii_storage,
    output_port_rate,
    quadratic_problem,
    simulate,
    simulate_projection,
    switched_storage,
    write_trajectory_csv,
)
from pdflow.switching import mode_multiplier_rates
from pdflow.integrator import (
    STAT_KEYS,
    read_ledger_csv,
    read_trajectory_csv,
    write_ledger_csv,
)
from conftest import REPO_ROOT, as_generic

SCALAR = quadratic_problem([[2.0]], [-4.0], 4.0)  # (x-2)^2, flow rate 2
CONST_G = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[0.0]], d=[-1.0])  # g = -1 always


def test_pure_equality_run_matches_closed_form():
    sys = compose(SCALAR, [1.0], [], [])
    opts = IntegratorOptions(horizon=2.0, dt_max=0.05, record_stride=0.25, rtol=1e-10)
    traj = simulate(sys, full_state(sys, [0.0]), opts)
    exact = 2.0 - 2.0 * np.exp(-2.0 * traj.times)
    assert np.allclose(traj.x[:, 0], exact, atol=1e-9)
    assert len(traj.ledger) == 0


@pytest.mark.parametrize("problem", [CONST_G, as_generic(CONST_G)], ids=["affine", "generic"])
def test_event_time_closed_form(problem):
    # mu(0) = 0.5 with g = -1 and tau = 2: zero crossing at exactly t = 1.0
    sys = compose(problem, [1.0], [], [2.0])
    opts = IntegratorOptions(horizon=3.0, dt_max=0.1, record_stride=0.5)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.5]), opts)
    assert len(traj.ledger) == 1
    ev = traj.ledger[0]
    assert ev.kind == "activation" and ev.index == 0
    assert ev.time == pytest.approx(1.0, abs=1e-8)
    # located to the event-function tolerance: |mu| <= event_tol at the event
    k = np.searchsorted(traj.times, ev.time)
    assert abs(traj.mu[k, 0]) <= opts.event_tol


def test_mu_stays_exactly_zero_when_clamped():
    sys = compose(CONST_G, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=2.0, dt_max=0.1, record_stride=0.1)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.0]), opts)
    assert np.all(traj.mu == 0.0)
    assert len(traj.ledger) == 0


def test_horizon_zero_records_single_sample():
    sys = compose(SCALAR, [1.0], [], [])
    traj = simulate(sys, full_state(sys, [0.7]), IntegratorOptions(horizon=0.0))
    assert len(traj) == 1
    assert traj.times[0] == 0.0
    assert traj.x[0, 0] == 0.7


def test_mu_nonnegative_and_sigma_consistent_at_samples():
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sys = compose(prob, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=12.0, dt_max=0.05, record_stride=0.05)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.8]), opts)
    assert traj.mu.min() >= 0.0
    for k in range(len(traj)):
        if traj.event_pre[k]:
            continue  # left-limit sample keeps the pre-switch mode by design
        assert traj.sigma[k] == compute_sigma(traj.mu[k], traj.g[k])
    assert np.all(np.diff(traj.times) > 0)


def test_order_of_accuracy_on_linear_flow():
    sys = compose(as_generic(SCALAR), [1.0], [], [])  # the DP5(4) path
    exact = 2.0 - 2.0 * np.exp(-2.0)

    def endpoint_error(dt):
        opts = IntegratorOptions(horizon=1.0, dt_init=dt, dt_max=dt,
                                 record_stride=1.0, rtol=1.0, atol=1e30)
        traj = simulate(sys, full_state(sys, [0.0]), opts)
        return abs(traj.final_state.x[0] - exact)

    e_coarse, e_fine = endpoint_error(0.1), endpoint_error(0.05)
    assert e_coarse / e_fine >= 8.0


def test_affine_flow_is_exact_on_linear_flow():
    # an affine run propagates exp(h Z): no truncation error at either dt_max
    sys = compose(SCALAR, [1.0], [], [])
    exact = 2.0 - 2.0 * np.exp(-2.0)
    for dt in (0.1, 0.05):
        opts = IntegratorOptions(horizon=1.0, dt_init=dt, dt_max=dt,
                                 record_stride=1.0, rtol=1.0, atol=1e30)
        traj = simulate(sys, full_state(sys, [0.0]), opts)
        assert abs(traj.final_state.x[0] - exact) <= 1e-13
        assert traj.stats["rhs_evals"] == 0
        assert traj.stats["step_attempts"] == traj.stats["cached_steps"] == round(1.0 / dt)


def test_step_advances_exactly_and_reports_events():
    sys = compose(CONST_G, [1.0], [], [1.0])
    state = full_state(sys, [0.0], mu=[0.5])

    def one_step(dt):
        # one step of length dt per smooth segment: no accuracy rejection
        opts = IntegratorOptions(horizon=dt, dt_init=dt, dt_max=dt, record_stride=dt,
                                 rtol=1.0, atol=1e30)
        traj = simulate(sys, state, opts)
        return traj.final_state, traj.ledger, traj.times[-1]

    new_state, events, t_end = one_step(1.0)
    assert t_end == 1.0
    assert len(events) == 1
    assert events[0].time == pytest.approx(0.5, abs=1e-8)
    assert new_state.mu == pytest.approx([0.0])
    assert new_state.sigma == frozenset({0})

    # no event when the span ends before the crossing
    mid_state, events, t_end = one_step(0.25)
    assert t_end == 0.25
    assert events == []
    assert mid_state.mu == pytest.approx([0.25])


def test_deterministic_byte_level_serialization(tmp_path):
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sys = compose(prob, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=10.0, dt_max=0.05, record_stride=0.25)
    digests = []
    for run in range(2):
        traj = simulate(sys, full_state(sys, [0.0], mu=[0.3]), opts)
        path = tmp_path / f"run{run}.csv"
        write_trajectory_csv(traj, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_csv_round_trip(tmp_path):
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sys = compose(prob, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=6.0, dt_max=0.05, record_stride=0.5)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.3]), opts)
    write_trajectory_csv(traj, tmp_path / "t.csv")
    write_ledger_csv(traj.ledger, tmp_path / "l.csv")
    data = read_trajectory_csv(tmp_path / "t.csv")
    assert np.array_equal(data["t"], traj.times)
    assert np.array_equal(data["x"], traj.x)
    assert np.array_equal(data["mu"], traj.mu)
    assert np.array_equal(data["sigma_mask"], traj.sigma_bitmask())
    assert np.array_equal(data["S_tilde"], traj.s_tilde)
    ledger = read_ledger_csv(tmp_path / "l.csv")
    assert ledger == traj.ledger


def test_ledger_storage_invariants():
    # g1 = x - 1 active at the optimum (deactivation on the way), g2 = x - 3
    # inactive (its multiplier decays to zero, one activation)
    prob = quadratic_problem(
        [[2.0]], [-4.0], 4.0, G=[[1.0], [1.0]], d=[-1.0, -3.0]
    )
    sys = compose(prob, [1.0], [], np.ones(2))
    opts = IntegratorOptions(horizon=30.0, dt_max=0.05, record_stride=0.5)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.0, 0.9]), opts)
    kinds = {ev.kind for ev in traj.ledger}
    assert kinds == {"activation", "deactivation"}
    for ev in traj.ledger:
        if ev.kind == "activation":
            assert ev.storage_after < ev.storage_before
        else:
            assert abs(ev.storage_after - ev.storage_before) <= 1e-10


def test_events_record_samples_on_both_sides():
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sys = compose(prob, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=10.0, dt_max=0.05, record_stride=0.5)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.0]), opts)
    assert traj.ledger
    for ev in traj.ledger:
        k = int(np.searchsorted(traj.times, ev.time))
        assert traj.times[k] == ev.time
        assert traj.event_pre[k]
        assert traj.times[k + 1] == np.nextafter(ev.time, np.inf)
        assert traj.sigma[k] != traj.sigma[k + 1]
        assert 0.0 <= ev.time <= opts.horizon
    times = [ev.time for ev in traj.ledger]
    assert times == sorted(times)


def test_coincident_events_processed_in_index_order():
    # two identical constraints give exactly coincident crossings
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[0.0], [0.0]], d=[-1.0, -1.0])
    sys = compose(prob, [1.0], [], np.ones(2))
    opts = IntegratorOptions(horizon=2.0, dt_max=0.1, record_stride=0.5)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.5, 0.5]), opts)
    assert len(traj.ledger) == 2
    assert traj.ledger[0].time == traj.ledger[1].time
    assert [ev.index for ev in traj.ledger] == [0, 1]
    # chained storages: second event starts where the first left off
    assert traj.ledger[1].storage_before == traj.ledger[0].storage_after
    assert traj.ledger[1].storage_after == 0.0
    assert np.all(traj.mu[-1] == 0.0)


def test_forced_run_keeps_invariants_across_many_events():
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sys = compose(prob, [1.0], [], [1.0])
    v = lambda t: np.array([3.0 * np.sin(0.7 * t)])
    v_dot = lambda t: np.array([2.1 * np.cos(0.7 * t)])
    opts = IntegratorOptions(horizon=40.0, dt_max=0.05, record_stride=0.1, rtol=1e-9)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.0]), opts, v=v, v_dot=v_dot)
    kinds = [ev.kind for ev in traj.ledger]
    assert kinds.count("activation") >= 3 and kinds.count("deactivation") >= 3
    assert traj.mu.min() >= 0.0
    for k in range(len(traj)):
        if not traj.event_pre[k]:
            assert traj.sigma[k] == compute_sigma(traj.mu[k], traj.g[k])
    for ev in traj.ledger:
        if ev.kind == "activation":
            assert ev.storage_after < ev.storage_before
        else:
            assert abs(ev.storage_after - ev.storage_before) <= 1e-10


def test_divergence_error_carries_last_state():
    # explicit DP5(4) steps of 0.1 on a rate of 1e6 blow up
    bad = as_generic(quadratic_problem([[1e6]], [0.0]))
    sys = compose(bad, [1.0], [], [])
    opts = IntegratorOptions(horizon=5.0, dt_init=0.1, dt_min=0.1, dt_max=0.1,
                             record_stride=1.0, rtol=1e12, atol=1e30)
    with pytest.raises(DivergenceError) as info:
        simulate(sys, full_state(sys, [1.0]), opts)
    assert np.isfinite(info.value.state).all()


def test_stiff_affine_run_settles():
    # the same run on the exact flow: exp(0.1 * -1e6) is 0, nothing diverges
    sys = compose(quadratic_problem([[1e6]], [0.0]), [1.0], [], [])
    opts = IntegratorOptions(horizon=5.0, dt_init=0.1, dt_min=0.1, dt_max=0.1,
                             record_stride=1.0, rtol=1e12, atol=1e30)
    traj = simulate(sys, full_state(sys, [1.0]), opts)
    assert traj.times[-1] == 5.0
    assert np.all(traj.x[1:] == 0.0)
    assert traj.stats["rejected_steps"] == traj.stats["forced_accepts"] == 0


def test_affine_divergence_error_carries_last_state(monkeypatch):
    # every batch of exact sub-steps is checked for finite values; the mode's
    # exponentials come from its Taylor table
    monkeypatch.setattr("pdflow.integrator.taylor_table",
                        lambda A, cap: np.full((2, *A.shape), np.inf))
    sys = compose(SCALAR, [1.0], [], [])
    opts = IntegratorOptions(horizon=1.0, dt_max=0.1, record_stride=0.5)
    with pytest.raises(DivergenceError) as info:
        simulate(sys, full_state(sys, [0.5]), opts)
    assert info.value.time == 0.0
    assert info.value.state.tolist() == [0.5]


@pytest.mark.parametrize("problem", [CONST_G, as_generic(CONST_G)], ids=["affine", "generic"])
def test_event_isolation_error_when_tolerance_unreachable(problem):
    sys = compose(problem, [1.0], [], [1.0])
    # bracket floor (dt_min) is hit long before the absurd event tolerance
    opts = IntegratorOptions(horizon=2.0, dt_init=0.05, dt_min=0.01, dt_max=0.05,
                             record_stride=0.5, event_tol=1e-300)
    with pytest.raises(EventIsolationError):
        simulate(sys, full_state(sys, [0.0], mu=[0.5]), opts)


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(horizon=-1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(horizon=1.0, dt_min=1.0, dt_init=0.5, dt_max=2.0)
    with pytest.raises(ValueError):
        IntegratorOptions(horizon=1.0, event_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(horizon=1.0, record_stride=0.0)


@pytest.mark.parametrize("compiled", [True, False])
def test_forced_accepts_at_dt_min_are_counted(compiled):
    sys = compose(SCALAR if compiled else as_generic(SCALAR), [1.0], [], [])
    # dt_min = dt_max and a tolerance the first step cannot meet: a DP5(4)
    # step is forced; the exact flow of an affine run has no error to meet
    opts = IntegratorOptions(horizon=1.0, dt_init=0.25, dt_min=0.25, dt_max=0.25,
                             record_stride=1.0, rtol=1e-15, atol=1e-15)
    stats = simulate(sys, full_state(sys, [0.0]), opts).stats
    assert stats["rejected_steps"] == 0  # no attempt is above dt_min, so none is rejected
    assert (stats["cached_steps"] > 0) == compiled
    if compiled:
        assert stats["forced_accepts"] == 0
    else:
        assert stats["forced_accepts"] >= 1


@pytest.mark.parametrize("compiled", [True, False])
def test_steps_stay_at_dt_min_after_forced_accepts(compiled):
    sys = compose(SCALAR if compiled else as_generic(SCALAR), [1.0], [], [])
    opts = IntegratorOptions(horizon=1.0, dt_init=0.25, dt_min=0.25, dt_max=0.25,
                             record_stride=1.0, rtol=1e-15, atol=1e-15)
    stats = simulate(sys, full_state(sys, [0.0]), opts).stats
    assert stats["step_attempts"] == 4
    assert stats["forced_accepts"] == (0 if compiled else 4)


def test_stats_count_rejections_and_bisections_and_concat_sums_them():
    sys = compose(as_generic(CONST_G), [1.0], [], [2.0])  # the DP5(4) path
    opts = IntegratorOptions(horizon=3.0, dt_init=0.1, dt_max=0.1, record_stride=0.5,
                             rtol=1e-12, atol=1e-14)
    # mu' = -0.5 from 0.53: one event at t = 1.06, strictly inside the step
    # [1.0, 1.1], so the locator iterates whatever the rounding at step ends
    a = simulate(sys, full_state(sys, [0.0], mu=[0.53]), opts)
    assert set(a.stats) == set(STAT_KEYS)
    assert a.stats["bisection_propagations"] > 0
    assert a.stats["rejected_steps"] > 0
    assert a.stats["forced_accepts"] == 0
    end = a.final_state
    b = simulate(sys, full_state(sys, end.x, end.lam, end.mu), opts)
    joined = concat_trajectories(a, b)
    assert joined.stats == {k: a.stats[k] + b.stats[k] for k in STAT_KEYS}


def test_projection_run_locates_events_in_few_newton_iterations():
    # the time-varying run of the mode-revisit demo on the DP5(4) path: Newton
    # takes the slope of mu_i off sigma and of -g_i = -grads(u) u_dot on it,
    # where bisection on the step length took about 27 propagations per event
    traj = runpy.run_path(str(REPO_ROOT / "scripts" / "mode_revisit_demo.py"))["run"]()
    assert {e.kind for e in traj.ledger} == {"activation", "deactivation"}
    assert 0 < traj.stats["bisection_propagations"] <= 4 * len(traj.ledger)


def test_hessians_are_evaluated_only_for_the_derived_columns():
    # the field and the projection run's rates need g and its gradients; only
    # trajectory_columns uses Hessians, once per sample and constraint
    calls = []
    curved = SmoothScalar(lambda x: 0.5 * x @ x - 1.0, lambda x: x.copy(),
                          lambda x: calls.append(1) or np.eye(1))
    problem = ConvexProblem(Quadratic([[2.0]], [-4.0]), AffineMap(np.zeros((0, 1)), []),
                            (curved,), 1)
    sys = compose(problem, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=3.0, dt_max=0.1, record_stride=0.25, rtol=1e-8)
    traj = simulate(sys, full_state(sys, [0.0], mu=[0.0]), opts)
    assert traj.ledger and len(calls) == len(traj)
    calls.clear()
    proj = simulate_projection(sys.proj, lambda t: np.array([2.0 * np.sin(t)]), [0.2], opts,
                               u_dot=lambda t: np.array([2.0 * np.cos(t)]))
    assert proj.ledger and len(calls) == len(proj)


def test_affine_stats_count_root_finder_iterations_and_no_rejections():
    sys = compose(CONST_G, [1.0], [], [2.0])
    opts = IntegratorOptions(horizon=3.0, dt_init=0.1, dt_max=0.1, record_stride=0.5,
                             rtol=1e-12, atol=1e-14)
    a = simulate(sys, full_state(sys, [0.0], mu=[0.5]), opts)
    assert set(a.stats) == set(STAT_KEYS)
    assert len(a.ledger) == 1
    # Newton on the exact event function: a few iterations, not a bisection's ~27
    assert 0 < a.stats["bisection_propagations"] <= 4
    assert a.stats["rejected_steps"] == a.stats["forced_accepts"] == a.stats["rhs_evals"] == 0
    assert a.stats["cached_steps"] == a.stats["step_attempts"] > 0
    end = a.final_state
    b = simulate(sys, full_state(sys, end.x, end.lam, end.mu), opts)
    joined = concat_trajectories(a, b)
    assert joined.stats == {k: a.stats[k] + b.stats[k] for k in STAT_KEYS}


def _assert_columns_match(traj, want):
    """Every column of `want` (sample by sample) equals traj's to 1e-12 of its scale."""
    for name, ref in want.items():
        ref = np.asarray(ref, dtype=float).reshape(getattr(traj, name).shape)
        err = np.max(np.abs(getattr(traj, name) - ref), initial=0.0)
        assert err <= 1e-12 * np.max(np.abs(ref), initial=0.0), name


def test_columns_match_pointwise_definitions():
    # a curved inequality that binds while v varies: the Hessian term of the
    # output-port rate and the external power are both nonzero
    prob = ConvexProblem(Quadratic(2.0 * np.eye(2), [-4.0, -3.0]),
                         AffineMap([[1.0, -1.0]], [0.2]),
                         (QuadraticScalar(2.0 * np.eye(2), [0.0, 0.0], -1.0),), 2)
    sys = compose(prob, [1.0, 0.5], [1.0], [0.7])
    v = lambda t: np.array([0.5 * np.sin(t), 0.3 * np.cos(2.0 * t)])
    v_dot = lambda t: np.array([0.5 * np.cos(t), -0.6 * np.sin(2.0 * t)])
    opts = IntegratorOptions(horizon=12.0, dt_max=0.05, record_stride=0.1, rtol=1e-9)
    traj = simulate(sys, full_state(sys, [0.0, 0.0], [0.0], [0.0]), opts, v=v, v_dot=v_dot)

    want = {k: [] for k in ("g", "x_dot", "lam_dot", "mu_dot", "p_tilde", "s_sigma",
                            "s_tilde", "power_eq", "power_ineq", "power_ext")}
    curvature = 0.0
    for k, t in enumerate(traj.times):
        st = FullState(traj.x[k], traj.lam[k], traj.mu[k], traj.sigma[k])
        xd, ld, md = composed_vector_field(sys, st, v(t))
        y_rate = output_port_rate(sys.proj, st.x, st.mu, md, xd)
        pt = krasovskii_storage(sys.bm, xd, ld)
        ss = switched_storage(sys.proj, st.sigma, md)
        for name, val in zip(want, (sys.proj.values(st.x), xd, ld, md, pt, ss, pt + ss,
                                    -(y_rate + v_dot(t)) @ xd, xd @ y_rate,
                                    -v_dot(t) @ xd)):
            want[name].append(val)
        curvature = max(curvature, abs(xd @ (y_rate - md @ sys.proj.grads(st.x))))
    assert curvature > 1e-3
    assert np.max(np.abs(traj.power_ext)) > 1e-3
    _assert_columns_match(traj, want)


def test_projection_columns_match_pointwise_definitions():
    proj = ProjectionSystem((AffineScalar([1.0, 0.0], -1.0),
                             QuadraticScalar(np.eye(2), [0.0, 0.0], -0.5)), [1.0, 0.5], 2)
    u = lambda t: np.array([1.6 * np.sin(0.8 * t), np.cos(0.5 * t)])
    u_dot = lambda t: np.array([1.28 * np.cos(0.8 * t), -0.5 * np.sin(0.5 * t)])
    opts = IntegratorOptions(horizon=15.0, dt_max=0.05, record_stride=0.1, rtol=1e-9)
    traj = simulate_projection(proj, u, [0.0, 0.3], opts, u_dot=u_dot)
    assert traj.ledger

    want = {k: [] for k in ("x", "g", "x_dot", "mu_dot", "s_sigma", "s_tilde",
                            "power_ineq")}
    for k, t in enumerate(traj.times):
        uu, ud = u(t), u_dot(t)
        g = proj.values(uu)
        md = mode_multiplier_rates(proj, g, traj.sigma[k])
        ss = switched_storage(proj, traj.sigma[k], md)
        y_rate = output_port_rate(proj, uu, traj.mu[k], md, ud)
        for name, val in zip(want, (uu, g, ud, md, ss, ss, ud @ y_rate)):
            want[name].append(val)
    _assert_columns_match(traj, want)
    assert traj.lam.shape == traj.lam_dot.shape == (len(traj), 0)
    for name in ("p_tilde", "power_eq", "power_ext"):
        assert np.all(getattr(traj, name) == 0.0), name
