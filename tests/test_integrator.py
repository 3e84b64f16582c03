import hashlib

import numpy as np
import pytest

from pdflow import (
    ConvexProblem,
    DivergenceError,
    EventIsolationError,
    IntegratorOptions,
    SmoothScalar,
    compose,
    compute_sigma,
    concat_trajectories,
    event_functions,
    full_state,
    quadratic_problem,
    simulate,
    step,
    write_trajectory_csv,
)
from pdflow.integrator import (
    STAT_KEYS,
    read_ledger_csv,
    read_trajectory_csv,
    write_ledger_csv,
)

SCALAR = quadratic_problem([[2.0]], [-4.0], 4.0)  # (x-2)^2, flow rate 2
CONST_G = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[0.0]], d=[-1.0])  # g = -1 always


def test_pure_equality_run_matches_closed_form():
    sys = compose(SCALAR, [1.0], [], [])
    opts = IntegratorOptions(horizon=2.0, dt_max=0.05, record_stride=0.25, rtol=1e-10)
    traj = simulate(sys, full_state(sys, [0.0]), opts)
    exact = 2.0 - 2.0 * np.exp(-2.0 * traj.times)
    assert np.allclose(traj.x[:, 0], exact, atol=1e-9)
    assert len(traj.ledger) == 0


def test_event_time_closed_form():
    # mu(0) = 0.5 with g = -1 and tau = 2: zero crossing at exactly t = 1.0
    sys = compose(CONST_G, [1.0], [], [2.0])
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
    sys = compose(SCALAR, [1.0], [], [])
    exact = 2.0 - 2.0 * np.exp(-2.0)

    def endpoint_error(dt):
        opts = IntegratorOptions(horizon=1.0, dt_init=dt, dt_max=dt,
                                 record_stride=1.0, rtol=1.0, atol=1e30)
        traj = simulate(sys, full_state(sys, [0.0]), opts)
        return abs(traj.final_state.x[0] - exact)

    e_coarse, e_fine = endpoint_error(0.1), endpoint_error(0.05)
    assert e_coarse / e_fine >= 8.0


def test_step_advances_exactly_and_reports_events():
    sys = compose(CONST_G, [1.0], [], [1.0])
    state = full_state(sys, [0.0], mu=[0.5])
    new_state, events = step(sys, state, 1.0)
    assert len(events) == 1
    assert events[0].time == pytest.approx(0.5, abs=1e-8)
    assert new_state.mu == pytest.approx([0.0])
    assert new_state.sigma == frozenset({0})

    # no event when the span ends before the crossing
    mid_state, events = step(sys, state, 0.25)
    assert events == []
    assert mid_state.mu == pytest.approx([0.25])


def test_event_functions_listing():
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0], [0.0]], d=[-1.0, -1.0])
    sys = compose(prob, [1.0], [], [1.0, 1.0])
    state = full_state(sys, [0.0], mu=[0.0, 0.4])
    fns = event_functions(sys, state)
    # index 0 clamped (mu = 0, g = -1): watch g; index 1 free: watch mu
    assert fns[0] == ("deactivation", 0, pytest.approx(-1.0))
    assert fns[1] == ("activation", 1, pytest.approx(0.4))


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
    bad = quadratic_problem([[1e6]], [0.0])
    sys = compose(bad, [1.0], [], [])
    opts = IntegratorOptions(horizon=5.0, dt_init=0.1, dt_min=0.1, dt_max=0.1,
                             record_stride=1.0, rtol=1e12, atol=1e30)
    with pytest.raises(DivergenceError) as info:
        simulate(sys, full_state(sys, [1.0]), opts)
    assert np.isfinite(info.value.state).all()


def test_event_isolation_error_when_tolerance_unreachable():
    sys = compose(CONST_G, [1.0], [], [1.0])
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
    prob = SCALAR
    if not compiled:
        obj = prob.objective
        prob = ConvexProblem(SmoothScalar(obj.value, obj.grad, obj.hess),
                             prob.equality, (), prob.n)
    sys = compose(prob, [1.0], [], [])
    # dt_min = dt_max and a tolerance the first step cannot meet: it is forced
    opts = IntegratorOptions(horizon=1.0, dt_init=0.25, dt_min=0.25, dt_max=0.25,
                             record_stride=1.0, rtol=1e-15, atol=1e-15)
    stats = simulate(sys, full_state(sys, [0.0]), opts).stats
    assert stats["forced_accepts"] >= 1
    assert stats["rejected_steps"] == 0  # no attempt is above dt_min, so none is rejected
    assert (stats["cached_steps"] > 0) == compiled


def test_stats_count_rejections_and_bisections_and_concat_sums_them():
    sys = compose(CONST_G, [1.0], [], [2.0])
    opts = IntegratorOptions(horizon=3.0, dt_init=0.1, dt_max=0.1, record_stride=0.5,
                             rtol=1e-12, atol=1e-14)
    a = simulate(sys, full_state(sys, [0.0], mu=[0.5]), opts)
    assert set(a.stats) == set(STAT_KEYS)
    assert a.stats["bisection_propagations"] > 0  # one event at t = 1
    assert a.stats["rejected_steps"] > 0
    assert a.stats["forced_accepts"] == 0
    end = a.final_state
    b = simulate(sys, full_state(sys, end.x, end.lam, end.mu), opts)
    joined = concat_trajectories(a, b)
    assert joined.stats == {k: a.stats[k] + b.stats[k] for k in STAT_KEYS}
