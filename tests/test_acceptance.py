"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Criteria 1-3 share one batch of 200 randomized quadratic
instances (seeded, so the batch is reproducible); unsettled runs are extended
from their terminal state until the settling time is exceeded.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from pdflow import (
    AffineScalar,
    IntegratorOptions,
    KktPoint,
    ProjectionSystem,
    QuadraticScalar,
    ThermalNetwork,
    TouSchedule,
    WelfareParams,
    active_set_oracle,
    build_welfare_problem,
    check_composite_decrease,
    check_hybrid_passivity,
    check_quadratic_norm,
    compose,
    concat_trajectories,
    full_state,
    kkt_residual,
    load_scenario,
    quadratic_problem,
    run_tou_scenario,
    simulate,
    simulate_projection,
    steady_state_constraint,
)
from conftest import as_generic, central_grad, central_jac, random_qp_instance

MASTER_SEED = 2026
BATCH_SIZE = 200
BATCH_OPTS = IntegratorOptions(horizon=80.0, dt_max=0.2, record_stride=2.0, rtol=1e-9)


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


@dataclass
class BatchRecord:
    problem: object
    oracle: object
    trajectory: object
    x_error: float
    kkt_defect: float


@pytest.fixture(scope="session")
def batch():
    rng = np.random.default_rng(MASTER_SEED)
    records = []
    t0 = time.monotonic()
    for _ in range(BATCH_SIZE):
        problem, anchor = random_qp_instance(rng)
        sys_ = compose(problem, np.ones(problem.n), np.ones(problem.m),
                       np.ones(problem.p))
        x0 = anchor + rng.uniform(-1.0, 1.0, problem.n)
        mu0 = rng.uniform(0.0, 1.0, problem.p)
        traj = simulate(sys_, full_state(sys_, x0, np.zeros(problem.m), mu0),
                        BATCH_OPTS)
        oracle = active_set_oracle(problem)
        for _ in range(3):
            end = traj.final_state
            defect = kkt_residual(problem, KktPoint(end.x, end.lam, end.mu)).max_defect
            x_err = float(np.max(np.abs(end.x - oracle.x)))
            if x_err <= 1e-4 and defect <= 1e-6:
                break
            tail = simulate(sys_, full_state(sys_, end.x, end.lam, end.mu), BATCH_OPTS)
            traj = concat_trajectories(traj, tail)
        end = traj.final_state
        records.append(
            BatchRecord(
                problem=problem,
                oracle=oracle,
                trajectory=traj,
                x_error=float(np.max(np.abs(end.x - oracle.x))),
                kkt_defect=kkt_residual(
                    problem, KktPoint(end.x, end.lam, end.mu)
                ).max_defect,
            )
        )
    elapsed = time.monotonic() - t0
    return records, elapsed


def test_criterion_01_oracle_equivalence(batch):
    records, elapsed = batch
    worst_x = max(r.x_error for r in records)
    worst_kkt = max(r.kkt_defect for r in records)
    ok = worst_x <= 1e-4 and worst_kkt <= 1e-6 and elapsed <= 60.0
    _criterion(
        1,
        f"{BATCH_SIZE} randomized instances match the active-set oracle",
        ok,
        f"(worst |x - x*| = {worst_x:.2e}, worst KKT = {worst_kkt:.2e}, "
        f"runtime {elapsed:.1f} s)",
    )


def test_criterion_02_unforced_storage_decrease(batch):
    records, _ = batch
    subset = [r for r in records if r.problem.p == 0]
    worst = -np.inf
    for r in subset:
        traj = r.trajectory
        scale = float(np.max(np.abs(traj.p_tilde), initial=0.0))
        allowed = 1e-8 * max(scale, 1.0)
        violation = float(np.max(np.diff(traj.p_tilde), initial=-np.inf))
        worst = max(worst, violation - allowed)
        if violation > allowed:
            break
    ok = worst <= 0.0
    _criterion(
        2,
        f"Krasovskii storage non-increasing on the {len(subset)} equality-only runs",
        ok,
        f"(worst margin over budget = {worst:.2e})",
    )


def test_criterion_03_switch_ledger_law(batch):
    records, _ = batch
    subset = [r for r in records if r.problem.p >= 1]
    n_events = 0
    ok = True
    detail = ""
    for r in subset:
        traj = r.trajectory
        if traj.mu.size and traj.mu.min() < 0.0:
            ok, detail = False, "negative multiplier sample"
            break
        scale = float(np.max(np.abs(traj.s_sigma), initial=0.0))
        allowed = 1e-8 * max(scale, 1.0)
        for ev in traj.ledger:
            n_events += 1
            jump = ev.storage_after - ev.storage_before
            if ev.kind == "activation" and not (ev.storage_after < ev.storage_before):
                ok, detail = False, f"non-decreasing activation at t={ev.time}"
                break
            if ev.kind == "deactivation" and abs(jump) > allowed:
                ok, detail = False, f"discontinuous deactivation at t={ev.time}"
                break
        if not ok:
            break
    _criterion(
        3,
        f"switch ledger law over {len(subset)} inequality runs ({n_events} events)",
        ok,
        detail,
    )


def test_criterion_04_hybrid_passivity_revisits():
    proj = ProjectionSystem(
        (AffineScalar([1.0], -1.0), AffineScalar([-1.0], -1.0)), [1.0, 1.0], 1
    )
    u = lambda t: np.array([1.6 * np.sin(0.8 * t)])
    u_dot = lambda t: np.array([1.28 * np.cos(0.8 * t)])
    opts = IntegratorOptions(horizon=20.0, dt_max=0.05, record_stride=0.05, rtol=1e-9)
    traj = simulate_projection(proj, u, [0.0, 0.0], opts, u_dot=u_dot)
    kinds = [ev.kind for ev in traj.ledger[:4]]
    pattern_ok = kinds == ["deactivation", "activation", "deactivation", "activation"]
    revisited = [s for s in set(traj.sigma) if traj.sigma.count(s) > 1]
    reports = [check_hybrid_passivity(traj, s) for s in revisited]
    applicable = [r for r in reports if r.status != "not-applicable"]
    enough = any(r.details["visits"] >= 3 for r in applicable)
    ok = pattern_ok and enough and all(r.passed for r in applicable)
    worst = max((r.worst_violation for r in applicable), default=-np.inf)
    _criterion(
        4,
        "revisit inequality on the oscillating two-constraint schedule",
        ok,
        f"(modes checked = {len(applicable)}, worst violation = {worst:.2e})",
    )


def test_criterion_05_quadratic_norm_certificate():
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst_v = -np.inf
    worst_residual = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        u_star = rng.uniform(-1.0, 1.0, n)
        G = rng.normal(size=(p, n))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        slack = rng.uniform(0.1, 1.0, p)
        slack[rng.random(p) < 0.2] = 0.0  # boundary components g_i(u*) = 0
        d = -(G @ u_star) - slack
        proj = ProjectionSystem(
            tuple(AffineScalar(G[j], d[j]) for j in range(p)),
            rng.uniform(0.5, 2.0, p), n,
        )
        mu0 = rng.uniform(0.0, 1.0, p)
        opts = IntegratorOptions(horizon=15.0, dt_max=0.1, record_stride=0.25,
                                 rtol=1e-9)
        traj = simulate_projection(proj, u_star, mu0, opts)
        g_star = proj.values(u_star)
        mu_end = traj.mu[-1]
        residual = max(
            float(np.max(np.maximum(g_star, 0.0), initial=0.0)),
            float(np.max(np.abs(mu_end * g_star), initial=0.0)),
            float(np.max(np.maximum(-mu_end, 0.0), initial=0.0)),
        )
        worst_residual = max(worst_residual, residual)
        report = check_quadratic_norm(traj, mu_end)
        worst_v = max(worst_v, report.worst_violation - report.tolerance)
        if not report.passed or residual > 1e-6:
            ok = False
            break
    _criterion(
        5,
        "quadratic-norm decrease and terminal equilibrium-set membership "
        "on 50 constant-input systems",
        ok,
        f"(worst V margin = {worst_v:.2e}, worst residual = {worst_residual:.2e})",
    )


@pytest.fixture(scope="session")
def four_zone(scenario_dir):
    scn = load_scenario(scenario_dir / "hvac_four_zone.json")
    t0 = time.monotonic()
    traj = simulate(scn.composed, scn.initial, scn.opts)
    elapsed = time.monotonic() - t0
    return scn, traj, elapsed


def test_criterion_06_switching_table_structure(four_zone):
    scn, traj, elapsed = four_zone
    events = traj.ledger
    all_activations = len(events) == 8 and all(e.kind == "activation" for e in events)
    masks = traj.sigma_bitmask()
    monotone = all(masks[i] & masks[i + 1] == masks[i] for i in range(len(masks) - 1))
    strict_drops = all(e.storage_after < e.storage_before for e in events)
    closed_loop = check_composite_decrease(traj).passed
    final_zero = traj.s_sigma[-1] == 0.0 and len(traj.sigma[-1]) == 8
    ok = (all_activations and monotone and strict_drops and closed_loop
          and final_zero and elapsed <= 10.0)
    _criterion(
        6,
        "four-zone run reproduces the switching-table structure "
        "(8 activations, growing sigma, storage to zero)",
        ok,
        f"(events = {len(events)}, runtime {elapsed:.2f} s)",
    )


def test_criterion_07_building_equilibrium_quality(four_zone):
    scn, traj, _ = four_zone
    oracle = active_set_oracle(scn.problem)
    end = traj.final_state
    T_end, q_end = end.x[:4], end.x[4]
    net = scn.hvac.network
    A, b = steady_state_constraint(net)
    bounds_ok = bool(np.all(T_end >= 18.0) and np.all(T_end <= 24.0))
    balance = abs(float(A[0] @ T_end + b - q_end))
    x_err = float(np.max(np.abs(end.x - oracle.x)))
    ok = bounds_ok and balance <= 1e-6 and x_err <= 1e-4
    _criterion(
        7,
        "four-zone equilibrium is feasible, balanced, and matches the oracle",
        ok,
        f"(balance = {balance:.2e}, |x - x*| = {x_err:.2e})",
    )


def test_criterion_08_tou_price_response():
    net = ThermalNetwork(C=9.2, R_zone=np.zeros((4, 4)), R_amb=[11.5] * 4,
                         T_inf=30.0, d=[0.5] * 4, theta=3.0)
    par = WelfareParams(gamma=1.0, T_ref=20.5, b_util=40.0, rho=(0.5, 0.0, 0.0),
                        T_min=18.0, T_max=24.0)
    tou = TouSchedule(hours=[0.0, 8.0, 16.0, 24.0], prices=[1.0, 3.0, 1.0])
    day = run_tou_scenario(
        net, par, tou,
        opts=IntegratorOptions(horizon=50.0, dt_max=0.1, record_stride=1.0, rtol=1e-9),
    )
    flat0, surge, flat1 = day.intervals
    q_lower = surge.q_star < flat0.q_star and surge.q_star < flat1.q_star
    dev_surge = float(np.max(np.abs(surge.T_star - 20.5)))
    dev_flat = float(np.max(np.abs(flat0.T_star - 20.5)))
    moves = dev_surge > dev_flat
    in_bounds = bool(np.all(surge.T_star >= 18.0 - 1e-9)
                     and np.all(surge.T_star <= 24.0 + 1e-9))
    oracle_ok = all(
        float(np.max(np.abs(np.concatenate([iv.T_star, [iv.q_star]]) - iv.oracle.x)))
        <= 1e-4
        for iv in day.intervals
    )
    ok = q_lower and moves and in_bounds and oracle_ok
    _criterion(
        8,
        "3x price surge lowers interval supply and moves zone temperatures",
        ok,
        f"(q: {flat0.q_star:.3f} -> {surge.q_star:.3f} -> {flat1.q_star:.3f}, "
        f"|T - T_ref|: {dev_flat:.3f} -> {dev_surge:.3f})",
    )


def test_criterion_09_integrator_order():
    # the DP5(4) path; affine runs are exact (test_affine_flow_is_exact_on_linear_flow)
    prob_sys = compose(as_generic(quadratic_problem([[2.0]], [-4.0], 4.0)), [1.0], [], [])
    exact = 2.0 - 2.0 * np.exp(-2.0)

    def endpoint_error(dt):
        opts = IntegratorOptions(horizon=1.0, dt_init=dt, dt_max=dt,
                                 record_stride=1.0, rtol=1.0, atol=1e30)
        traj = simulate(prob_sys, full_state(prob_sys, [0.0]), opts)
        return abs(traj.final_state.x[0] - exact)

    e_coarse = endpoint_error(0.1)
    e_fine = endpoint_error(0.05)
    ratio = e_coarse / e_fine
    ok = ratio >= 8.0
    _criterion(
        9,
        "halving dt_max shrinks the endpoint error at least 8x on the linear flow",
        ok,
        f"(errors {e_coarse:.2e} -> {e_fine:.2e}, ratio {ratio:.1f})",
    )


def test_criterion_10_gradient_consistency():
    rng = np.random.default_rng(MASTER_SEED + 10)
    checked = 0
    worst = 0.0
    ok = True

    def rel_err(a, b):
        denom = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        return float(np.max(np.abs(a - b), initial=0.0)) / denom

    oracles = []
    for _ in range(12):
        problem, anchor = random_qp_instance(rng)
        oracles.append((problem.objective, problem.n, anchor))
        for con in problem.inequalities:
            oracles.append((con, problem.n, anchor))
    net = ThermalNetwork(C=9.2, R_zone=np.zeros((4, 4)), R_amb=[11.5] * 4,
                         T_inf=30.0, d=[0.5] * 4, theta=3.0)
    par = WelfareParams(gamma=1.0, T_ref=20.5, b_util=40.0, rho=(0.5, 0.0, 0.0),
                        T_min=18.0, T_max=24.0)
    wp = build_welfare_problem(net, par)
    oracles.append((wp.objective, wp.n, np.concatenate([np.full(4, 21.0), [14.0]])))
    B = rng.normal(size=(3, 3))
    oracles.append((QuadraticScalar(B @ B.T, rng.normal(size=3), 0.3), 3, np.zeros(3)))

    while checked < 100:
        fn, n, anchor = oracles[checked % len(oracles)]
        x = np.asarray(anchor, dtype=float) + rng.uniform(-0.5, 0.5, n)
        e_g = rel_err(fn.grad(x), central_grad(fn.value, x))
        e_h = rel_err(fn.hess(x), central_jac(fn.grad, x))
        worst = max(worst, e_g, e_h)
        if worst > 1e-6:
            ok = False
            break
        checked += 1
    _criterion(
        10,
        f"analytic gradients and Hessians match central differences on {checked} points",
        ok,
        f"(worst relative error = {worst:.2e})",
    )
