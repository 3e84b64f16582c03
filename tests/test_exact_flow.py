"""The exact per-mode flow of affine runs: the matrix exponential, each mode's
Taylor table, and the engine's use of them."""

import numpy as np
import pytest

from pdflow import (AffineMap, AffineScalar, ConvexProblem, IntegratorOptions, Quadratic,
                    QuadraticScalar, compose, full_state, quadratic_problem, simulate)
from pdflow import integrator
from pdflow.interconnect import AffineField, QuadraticField, compiled_field
from pdflow.matrix_exp import expm, taylor_table
from pdflow.scenario import load_scenario
from conftest import SCENARIO_DIR, as_generic, composed_for, initial_for, random_qp_instance

# the acceptance batch's options: grid h = 2.0 / ceil(2.0 / 0.2) = 0.2
BATCH = IntegratorOptions(horizon=80.0, dt_max=0.2, record_stride=2.0, rtol=1e-9)


def _close(a, b, rtol):
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= rtol * scale


def test_expm_diagonal():
    lam = np.array([-40.0, -3.0, 0.0, 0.5, 2.0])
    # entrywise relative: squaring e^(-40/16) four times keeps 4e-14
    assert np.allclose(expm(np.diag(lam)), np.diag(np.exp(lam)), rtol=1e-13, atol=0.0)


def test_expm_jordan_block():
    # exp(l I + N) = e^l (I + N + N^2/2 + N^3/6) for the nilpotent shift N
    N = np.diag(np.ones(3), 1)
    for lam, a in ((0.0, 0.1), (-1.5, 2.0), (0.3, 7.0)):
        want = np.exp(lam) * (np.eye(4) + a * N + (a * N) @ (a * N) / 2
                              + (a * N) @ (a * N) @ (a * N) / 6)
        assert _close(expm(lam * np.eye(4) + a * N), want, 1e-13)


@pytest.mark.parametrize("theta", [0.01, 2.5, 30.0, 300.0])
def test_expm_rotation(theta):
    # norms 30 and 300 take 3 and 6 squarings of the degree-13 approximant
    R = expm(np.array([[0.0, -theta], [theta, 0.0]]))
    c, s = np.cos(theta), np.sin(theta)
    assert _close(R, np.array([[c, -s], [s, c]]), 1e-12)


def test_expm_semigroup():
    rng = np.random.default_rng(11)
    for scale in (0.05, 1.0, 20.0):
        A = scale * rng.normal(size=(6, 6))
        for s, t in ((0.3, 0.7), (1.0, 2.5)):
            joined = expm((s + t) * A)
            assert _close(joined, expm(s * A) @ expm(t * A), 1e-11 * max(1.0, scale))


def test_expm_keeps_zero_rows_exact():
    # augmented [[M, c], [0, 0]] with one clamped row: both rows stay unit rows
    Z = np.array([[-2.0, 1.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for h in (1e-3, 0.2, 50.0):
        E = expm(h * Z)
        assert E[1].tolist() == [0.0, 1.0, 0.0]
        assert E[2].tolist() == [0.0, 0.0, 1.0]
        assert E[0, 0] == pytest.approx(np.exp(-2.0 * h), rel=1e-13)
    assert np.isnan(expm(np.array([[np.inf]]))).all()


def test_taylor_table_keeps_zero_rows_exact():
    Z = np.array([[-2.0, 1.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for h in (1e-3, 0.2, 1.0):
        E = taylor_table(h * Z, integrator._TAYLOR_CAP).sum(axis=0)
        assert E[1].tolist() == [0.0, 1.0, 0.0]
        assert E[2].tolist() == [0.0, 0.0, 1.0]
        assert E[0, 0] == pytest.approx(np.exp(-2.0 * h), rel=1e-14)
    assert taylor_table(50.0 * Z, integrator._TAYLOR_CAP) is None


def _qcqp_field():
    """A QCQP's compiled field: constraint 0 curved, 1 affine."""
    H = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 3.0]])
    cons = (QuadraticScalar(np.diag([1.0, 0.5, 2.0]), [0.3, -0.2, 0.1], -1.0),
            AffineScalar([1.0, 1.0, -0.5], -0.4))
    problem = ConvexProblem(Quadratic(H, [1.0, -1.0, 0.5]), AffineMap([[1.0, -1.0, 1.0]], [0.2]),
                            cons, 3)
    return compiled_field(compose(problem, [1.0, 0.7, 1.3], [0.8], [1.0, 1.5]))


def _agrees_with_expm(field, sigma, h):
    """The mode's table serves its step and its flow as `expm` does, to ~1e-14."""
    mode = integrator._ExactMode(field, sigma, h)
    assert mode.table is not None
    E = expm(h * mode.Z)
    assert _close(mode.powers(1)[0], E, 1e-14)
    for i in field.imu + np.array(sorted(sigma), dtype=int):  # clamped rows stay unit rows
        assert mode.powers(1)[0, i].tolist() == np.eye(len(E))[i].tolist()
    z = np.append(np.linspace(-1.0, 2.0, len(E) - 1), 1.0)
    for s in (1e-3 * h, 0.37 * h, h):
        assert _close(mode.flow(z)(s), expm(s * mode.Z) @ z, 1e-14)
    return mode


def test_taylor_table_matches_expm_on_qp_qcqp_and_hvac_modes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        field = compiled_field(composed_for(random_qp_instance(rng)[0]))
        for sigma in (frozenset(), frozenset(range(0, field.p, 2))):
            _agrees_with_expm(field, sigma, 0.2)
    field = _qcqp_field()
    assert isinstance(field, QuadraticField)
    for sigma in (frozenset({0}), frozenset({0, 1})):  # the curved row clamped: affine
        assert field.affine_in(sigma, np.zeros(6))
        _agrees_with_expm(field, sigma, 0.2)
    # the welfare problem's constant column is ~90 times its y-block's norm
    scn = load_scenario(SCENARIO_DIR / "hvac_four_zone.json")
    field, h = compiled_field(scn.composed), 0.05
    for sigma in (frozenset(), frozenset({0, 5})):
        mode = _agrees_with_expm(field, sigma, h)
        hM = h * mode.Z[:-1, :-1]
        assert np.abs(h * mode.Z).sum(axis=0).max() > 50 * np.abs(hM).sum(axis=0).max()


def test_an_evented_batch_run_calls_no_pade_exponential(monkeypatch):
    calls = []
    monkeypatch.setattr(integrator, "expm", lambda A: calls.append(A) or expm(A))
    rng = np.random.default_rng(2026)
    events = newton = 0
    for _ in range(10):
        problem, anchor = random_qp_instance(rng)
        traj = simulate(*initial_for(problem, rng, anchor), BATCH)
        events += len(traj.ledger)
        newton += traj.stats["bisection_propagations"]
    assert events and newton and not calls


def _stiff_problem():
    """H with eigenvalues 1e-2..1e4: explicit steps are held near 3e-4 s by stability."""
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    H = Q @ np.diag(np.logspace(-2, 4, 4)) @ Q.T
    return quadratic_problem(0.5 * (H + H.T), rng.normal(size=4), 0.0,
                             G=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]], d=[-0.2, -0.05])


def test_a_stiff_mode_gets_no_taylor_table():
    field = compiled_field(compose(_stiff_problem(), np.ones(4), [], np.ones(2)))
    for sigma in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
        assert integrator._ExactMode(field, sigma, 0.1).table is None


def test_stiff_mode_matches_the_generic_path_in_far_fewer_steps():
    prob = _stiff_problem()
    opts = IntegratorOptions(horizon=2.0, dt_max=0.1, record_stride=0.5, rtol=1e-13, atol=1e-13)
    runs = []
    for p in (prob, as_generic(prob)):
        sys_ = compose(p, np.ones(4), [], np.ones(2))
        runs.append(simulate(sys_, full_state(sys_, np.zeros(4), mu=[0.3, 0.0]), opts))
    exact, generic = runs
    assert [(e.index, e.kind) for e in exact.ledger] == [(1, "deactivation"), (0, "activation")]
    assert [(e.index, e.kind) for e in generic.ledger] == [(1, "deactivation"), (0, "activation")]
    for e, f in zip(exact.ledger, generic.ledger):
        assert abs(e.time - f.time) <= 1e-9
    for name in ("x", "mu"):
        assert np.max(np.abs(getattr(exact, name)[-1] - getattr(generic, name)[-1])) <= 1e-11
    assert exact.stats["step_attempts"] * 100 < generic.stats["step_attempts"]


def test_long_spans_are_cut_at_the_stack_cap(monkeypatch):
    # record_stride / dt_max = 2000: each span is 32 chunks of at most 64 sub-steps
    sizes = []
    powers = integrator._ExactMode.powers
    monkeypatch.setattr(integrator._ExactMode, "powers",
                        lambda self, K: sizes.append(K) or powers(self, K))
    rng = np.random.default_rng(3)
    events = 0
    for _ in range(3):
        problem, anchor = random_qp_instance(rng)
        sys_ = compose(problem, np.ones(problem.n), np.ones(problem.m), np.ones(problem.p))
        start = full_state(sys_, anchor + rng.uniform(-1.0, 1.0, problem.n),
                           np.zeros(problem.m), rng.uniform(0.0, 1.0, problem.p))
        long_, short = (simulate(sys_, start, IntegratorOptions(horizon=40.0, dt_max=0.01,
                                                                record_stride=stride))
                        for stride in (20.0, 0.01))
        assert [(e.index, e.kind) for e in long_.ledger] == \
            [(e.index, e.kind) for e in short.ledger]
        a, b = long_.final_state, short.final_state
        for u, w in ((a.x, b.x), (a.lam, b.lam), (a.mu, b.mu)):
            assert np.max(np.abs(u - w), initial=0.0) <= 1e-12
        events += len(long_.ledger)
    assert events > 0
    assert max(sizes) == integrator._STACK_CAP == 64


def _inactive_run(opts):
    """A run whose one constraint stays slack, so it has no event: (system, start)."""
    prob = quadratic_problem([[3.0, 1.0], [1.0, 2.0]], [-1.0, 0.5], 0.0,
                             [[1.0, 1.0]], [-0.5], [[1.0, 0.0]], [-50.0])
    sys_ = compose(prob, [1.0, 2.0], [1.0], [1.0])
    start = full_state(sys_, [1.0, -2.0], [0.3], [0.0])
    return sys_, start, simulate(sys_, start, opts)


def _chunk_sizes(monkeypatch):
    """The sub-step count of each grid chunk; a remainder sub-step is not one."""
    sizes = []
    powers = integrator._ExactMode.powers
    monkeypatch.setattr(integrator._ExactMode, "powers",
                        lambda self, K: sizes.append(K) or powers(self, K))
    return sizes


def test_chunks_sample_the_stride_sequence_on_the_exact_flow(monkeypatch):
    # stride 0.3 over dt_max 0.2: the grid is 0.15, and one chunk spans 32 record times
    sizes = _chunk_sizes(monkeypatch)
    sys_, start, traj = _inactive_run(IntegratorOptions(horizon=12.0, dt_max=0.2,
                                                        record_stride=0.3))
    assert not traj.ledger and traj.stats["step_attempts"] == 80
    assert sizes == [64, 16]
    want, t = [0.0], 0.0
    for _ in range(40):
        t += 0.3
        want.append(min(t, 12.0))
    assert traj.times.tolist() == want
    assert want != [0.3 * k for k in range(41)]
    field = compiled_field(sys_)
    assert isinstance(field, AffineField)
    Z = field.augmented(traj.sigma[0])
    z0 = np.append(np.concatenate([start.x, start.lam, start.mu]), 1.0)
    for t_k, y in zip(traj.times, np.hstack([traj.x, traj.lam, traj.mu])):
        assert _close(y, (expm(t_k * Z) @ z0)[:-1], 1e-12)


@pytest.mark.parametrize("horizon", [20.0, 20.02])
def test_a_chunk_spans_up_to_the_stack_cap_of_sub_steps(monkeypatch, horizon):
    # stride = dt_max over N = 400 sub-steps: ceil(400 / 64) chunks, and one
    # remainder sub-step more for a horizon off the grid
    sizes = _chunk_sizes(monkeypatch)
    _, _, traj = _inactive_run(IntegratorOptions(horizon=horizon, dt_max=0.05,
                                                 record_stride=0.05))
    off_grid = horizon > 20.0
    assert len(traj) == 401 + off_grid
    assert traj.stats["step_attempts"] == 400 + off_grid
    assert sum(sizes) == 400
    assert len(sizes) + off_grid <= -(-400 // integrator._STACK_CAP) + 1


@pytest.mark.parametrize("stride, dt_max, sub_steps", [(0.07, 0.01, 7), (0.04, 0.05, 1),
                                                       (0.2, 0.05, 4), (0.3, 0.2, 2)])
def test_the_grid_divides_the_stride_into_the_fewest_sub_steps(monkeypatch, stride, dt_max,
                                                                sub_steps):
    # h = stride / ceil(stride / dt_max); 0.07 / 0.01 is 7.000000000000001 in floating
    # point. Every sub-step is a grid step: none is a remainder.
    sizes = _chunk_sizes(monkeypatch)
    _, _, one = _inactive_run(IntegratorOptions(horizon=stride, dt_max=dt_max,
                                                record_stride=stride))
    assert one.stats["step_attempts"] == sizes[0] == sub_steps
    sizes.clear()
    _, _, ten = _inactive_run(IntegratorOptions(horizon=10 * stride, dt_max=dt_max,
                                                record_stride=stride))
    assert ten.stats["step_attempts"] == sum(sizes) == 10 * sub_steps


def test_an_event_on_a_record_time_keeps_the_later_samples():
    # x' = 2 - x from 0 meets the bound x <= 1 - 1e-11 just before ln 2, the first
    # record time; its event function is within event_tol past zero at that grid
    # point, so the event is applied there and the next chunk starts on the record time
    stride = np.log(2.0)
    prob = quadratic_problem([[1.0]], [-2.0], 0.0, None, None, [[1.0]], [1e-11 - 1.0])
    sys_ = compose(prob, [1.0], [], [1.0])
    traj = simulate(sys_, full_state(sys_, [0.0], [], [0.0]),
                    IntegratorOptions(horizon=3 * stride, dt_max=0.1, record_stride=stride))
    assert [(e.index, e.kind) for e in traj.ledger] == [(0, "deactivation")]
    assert abs(traj.ledger[0].time - stride) <= 1e-12
    assert stride + stride in traj.times.tolist()
    assert traj.times[-1] == 3 * stride


@pytest.mark.parametrize("stride", [5.0, np.inf])
def test_a_stride_past_the_horizon_records_the_horizon(stride):
    prob = quadratic_problem([[1.0]], [-2.0], 0.0, None, None, [[1.0]], [-1.0])
    sys_ = compose(prob, [1.0], [], [1.0])
    traj = simulate(sys_, full_state(sys_, [0.0], [], [0.0]),
                    IntegratorOptions(horizon=3.0, dt_max=0.1, record_stride=stride))
    assert [(e.index, e.kind) for e in traj.ledger] == [(0, "deactivation")]
    assert traj.times[0] == 0.0 and traj.times[-1] == 3.0
    assert len(traj) == 4  # the start, both sides of the event, the horizon
    assert traj.stats["step_attempts"] == 31
