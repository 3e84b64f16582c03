"""The per-mode compiled field of QCQP runs against the generic oracle path.

A problem with a Quadratic objective and affine or quadratic inequalities
under a constant input runs on `QuadraticField`: each DP5(4) stage is one
product W_sigma vec((1, x) (x) (1, y)) giving the rates and g, and a mode
whose curved constraints are all clamped at mu = 0 is affine and follows the
exact flow. Wrapping the same data in SmoothScalar (`as_generic`) sends it
through `GenericField`, which calls the oracles at every stage. A run that stays on DP5(4) takes the same
steps on both paths, so it must produce the same run: switch ledgers, sample
counts, event times, states and derived columns. A run that reaches an affine
mode must give the same ledger, samples and modes, and be at least as
accurate as the generic run against a tight generic reference.
"""

from dataclasses import replace

import numpy as np
import pytest

from pdflow import (
    AffineMap,
    AffineScalar,
    ConvexProblem,
    FullState,
    IntegratorOptions,
    Quadratic,
    QuadraticScalar,
    compose,
    composed_vector_field,
    full_state,
    simulate,
)
from pdflow.integrator import DivergenceError, _Engine, _ExactMode
from pdflow.interconnect import AffineField, GenericField, QuadraticField, compiled_field
from pdflow.matrix_exp import expm
from conftest import as_generic

DRAWS = 40
OPTS = IntegratorOptions(horizon=12.0, dt_max=0.2, record_stride=1.0, rtol=1e-9)
REFERENCE = replace(OPTS, rtol=1e-12, atol=1e-14)
COLUMNS = ("times", "x", "lam", "mu", "g", "x_dot", "lam_dot", "mu_dot", "p_tilde",
           "s_sigma", "s_tilde", "power_eq", "power_ineq", "power_ext")


def random_qcqp(rng):
    """A convex QCQP feasible with slack at an anchor point, and a start near it.

    n <= 4, m <= 1, p in 1..3; each inequality is quadratic with probability
    0.7 (at least one is), P_i eigenvalues in [0.2, 2], and every inequality
    holds at the anchor with slack in [0.2, 1]. Returns (problem, taus, x0, mu0).
    """
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, min(1, n - 1) + 1))
    p = int(rng.integers(1, 4))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = Q @ np.diag(rng.uniform(0.5, 5.0, n)) @ Q.T
    a = rng.uniform(-1.0, 1.0, n)
    A = rng.normal(size=(m, n))
    quad = rng.random(p) < 0.7
    quad[rng.integers(p)] = True
    cons = []
    for curved in quad:
        w = rng.normal(size=n)
        w *= rng.uniform(0.5, 1.5) / np.linalg.norm(w)
        s = rng.uniform(0.2, 1.0)
        if curved:
            Qi, _ = np.linalg.qr(rng.normal(size=(n, n)))
            P = Qi @ np.diag(rng.uniform(0.2, 2.0, n)) @ Qi.T
            P = 0.5 * (P + P.T)
            cons.append(QuadraticScalar(P, w - P @ a, 0.5 * a @ P @ a - w @ a - s))
        else:
            cons.append(AffineScalar(w, -(w @ a) - s))
    problem = ConvexProblem(Quadratic(0.5 * (H + H.T), rng.uniform(-2.0, 2.0, n)),
                            AffineMap(A, -(A @ a)), tuple(cons), n)
    taus = (rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, p))
    return problem, taus, a + rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, p)


@pytest.fixture(scope="module")
def path_pairs():
    """(compiled, generic, reference) runs of DRAWS random QCQPs; the generic
    reference at REFERENCE only where the compiled run takes the exact branch."""
    rng = np.random.default_rng(19)
    pairs = []
    for _ in range(DRAWS):
        problem, taus, x0, mu0 = random_qcqp(rng)
        compiled_sys, generic_sys = compose(problem, *taus), compose(as_generic(problem), *taus)
        run = lambda sys_, opts: simulate(sys_, full_state(sys_, x0, None, mu0), opts)
        compiled, generic = run(compiled_sys, OPTS), run(generic_sys, OPTS)
        exact = compiled.stats["cached_steps"] > 0
        pairs.append((compiled, generic, run(generic_sys, REFERENCE) if exact else None))
    return pairs


def _errors(traj, reference):
    """Worst state error and worst event-time error of a run against a reference."""
    state = max(np.max(np.abs(getattr(traj, k) - getattr(reference, k)), initial=0.0)
                for k in ("x", "lam", "mu"))
    event = max((abs(e.time - f.time) for e, f in zip(traj.ledger, reference.ledger)), default=0.0)
    return state, event


def test_compiled_and_generic_qcqp_runs_agree(path_pairs):
    assert sum(len(c.ledger) for c, _, _ in path_pairs) >= DRAWS  # the draws do switch
    assert sum(ref is not None for _, _, ref in path_pairs) >= 10  # and reach affine modes
    for compiled, generic, reference in path_pairs:
        assert [(e.index, e.kind) for e in compiled.ledger] == \
            [(e.index, e.kind) for e in generic.ledger]
        assert len(compiled) == len(generic)
        assert compiled.sigma == generic.sigma
        if reference is None:  # DP5(4) throughout: the same steps and stage evaluations
            for e, f in zip(compiled.ledger, generic.ledger):
                assert abs(e.time - f.time) <= 1e-9
            assert compiled.stats == generic.stats
            for name in ("x", "lam", "mu"):
                a, b = getattr(compiled, name), getattr(generic, name)
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-10, name
        else:  # the exact branch takes other steps, and must be no less accurate
            assert compiled.stats["rhs_evals"] < generic.stats["rhs_evals"]
            assert [(e.index, e.kind) for e in reference.ledger] == \
                [(e.index, e.kind) for e in generic.ledger]
            assert len(reference) == len(generic)
            c_state, c_event = _errors(compiled, reference)
            g_state, g_event = _errors(generic, reference)
            assert c_state <= g_state + 1e-12
            assert c_event <= g_event + 1e-12
        for name in COLUMNS:
            a, b = getattr(compiled, name), getattr(generic, name)
            scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-7 * scale, name


def test_quadratic_field_matches_composed_vector_field():
    # a stage is one product W_sigma vec((1, x) (x) (1, y)) = (y', g(x)),
    # clamped curved rows included
    rng = np.random.default_rng(23)
    clamped_curved = no_equalities = 0
    for _ in range(20):
        problem, taus, x0, _ = random_qcqp(rng)
        sys_ = compose(problem, *taus)
        v = rng.normal(size=problem.n)
        field = compiled_field(sys_, v)
        assert isinstance(field, QuadraticField)
        p, N = problem.p, field.size
        no_equalities += problem.m == 0
        states = [
            FullState(x0 + rng.normal(size=problem.n), rng.normal(size=problem.m),
                      rng.uniform(0.0, 1.0, p),
                      frozenset(int(i) for i in np.flatnonzero(rng.random(p) < 0.5)))
            for _ in range(5)
        ]
        Y = np.array([np.concatenate([s.x, s.lam, s.mu]) for s in states])
        D = field.derivatives(Y, [s.sigma for s in states])
        for k, st in enumerate(states):
            ref = np.concatenate(composed_vector_field(sys_, st, v))
            mask = np.isin(np.arange(p), sorted(st.sigma))
            out = field.stage(st.sigma, mask)(0.0, np.append(1.0, Y[k]))
            assert np.allclose(out[:N], ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(out[N:], field.constraint_values(st.x[None])[0],
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(out[N:], sys_.proj.values(st.x), rtol=1e-12, atol=1e-12)
            assert np.allclose(D[k], ref, rtol=1e-12, atol=1e-12)
            clamped_curved += bool(st.sigma & field.curved)
    assert clamped_curved >= 10 and no_equalities >= 5


def test_the_sign_test_reads_g_at_the_step_end(monkeypatch):
    # a DP5(4) step's last stage carries g at its endpoint, which the sign
    # test uses in place of a separate g call; every crossed span must hand
    # the locator the event functions of its end state
    seen = []
    apply = _Engine._apply_first_event
    monkeypatch.setattr(_Engine, "_apply_first_event",
                        lambda self, event, t_a, h, phi_a, phi_end, y_end:
                        seen.append((self.sigma, phi_end.copy(), y_end.copy()))
                        or apply(self, event, t_a, h, phi_a, phi_end, y_end))
    traj = _swing([0.05, 0.0])
    assert traj.stats["rhs_evals"] > 0 and traj.ledger
    g_events = 0
    for sigma, phi_end, y_end in seen:
        clamped = np.isin([0, 1], sorted(sigma))
        g = np.array([0.5 * y_end[0] ** 2 - 1.125, y_end[0] - 1.0])
        want = np.where(clamped, -g, y_end[1:])
        assert np.allclose(phi_end, want, rtol=0.0, atol=1e-13)
        g_events += bool(clamped.any())
    assert g_events >= 1


def _spy_on_oracle_stages(monkeypatch):
    calls = []
    rates = GenericField.rates
    monkeypatch.setattr(GenericField, "rates",
                        lambda self, t, y, clamped: calls.append(t) or rates(self, t, y, clamped))
    return calls


def test_curved_problems_with_constant_input_take_the_compiled_field(monkeypatch):
    curved = ConvexProblem(Quadratic([[2.0]], [-4.0]), AffineMap(np.zeros((0, 1)), []),
                           (QuadraticScalar([[1.0]], [0.0], -1.0), AffineScalar([1.0], -3.0)), 1)
    sys_ = compose(curved, [1.0], [], [1.0, 1.0])
    assert isinstance(compiled_field(sys_), QuadraticField)
    assert not isinstance(compiled_field(sys_), AffineField)
    assert compiled_field(compose(as_generic(curved), [1.0], [], [1.0, 1.0])) is None

    calls = _spy_on_oracle_stages(monkeypatch)
    opts = IntegratorOptions(horizon=4.0, dt_max=0.05, record_stride=0.5, rtol=1e-6)
    start = full_state(sys_, [0.0], mu=[0.5, 0.0])
    for v in (None, [0.3]):
        traj = simulate(sys_, start, opts, v=v)
        assert traj.stats["rhs_evals"] > 0 and traj.stats["cached_steps"] == 0
    assert not calls
    simulate(sys_, start, opts, v=lambda t: np.array([np.sin(t)]),
             v_dot=lambda t: np.array([np.cos(t)]))
    assert calls
    calls.clear()
    generic = compose(as_generic(curved), [1.0], [], [1.0, 1.0])
    simulate(generic, full_state(generic, [0.0], mu=[0.5, 0.0]), opts)
    assert calls


def test_event_free_steps_evaluate_each_stage_once(monkeypatch):
    # FSAL: an accepted step's last stage, f at its endpoint, is the next
    # step's first, so no (t, y) is evaluated twice and each attempt costs
    # six evaluations after the run's first
    prob = ConvexProblem(Quadratic([[3.0, 1.0], [1.0, 2.0]], [-1.0, 0.5]),
                         AffineMap([[1.0, 1.0]], [-0.5]), (), 2)
    sys_ = compose(as_generic(prob), [1.0, 2.0], [1.0], [])
    seen = []
    rates = GenericField.rates
    monkeypatch.setattr(GenericField, "rates", lambda self, t, y, clamped:
                        seen.append((t, y.tobytes())) or rates(self, t, y, clamped))
    opts = IntegratorOptions(horizon=5.0, dt_init=0.5, dt_max=0.5, record_stride=1.0,
                             rtol=1e-10, atol=1e-12)
    traj = simulate(sys_, full_state(sys_, [1.0, -1.0]), opts)
    stats = traj.stats
    assert not traj.ledger and stats["rejected_steps"] > 0
    assert len(seen) == len(set(seen)) == stats["rhs_evals"]
    assert stats["rhs_evals"] == 1 + 6 * stats["step_attempts"]


# -- mixed runs: exact in affine modes, DP5(4) elsewhere ----------------------
# f = 0.1 (x - 11)^2 under g_0 = 0.5 x^2 - 1.125 (curved, slack at the optimum
# x* = 1) and g_1 = x - 1 (affine, active there). From x = 0.9, mu_1 swings x
# up through g_0 = 0 (x = 1.5) near t = 0.31 and back, so row 0 deactivates
# and later (t = 3.71) is clamped again at mu_0 = 0.
SWING = ConvexProblem(Quadratic([[0.2]], [-2.2]), AffineMap(np.zeros((0, 1)), []),
                      (QuadraticScalar([[1.0]], [0.0], -1.125), AffineScalar([1.0], -1.0)), 1)
SWING_OPTS = IntegratorOptions(horizon=6.0, dt_max=0.2, record_stride=0.5, rtol=1e-9)


def _swing(mu0, generic=False, opts=SWING_OPTS):
    sys_ = compose(as_generic(SWING) if generic else SWING, [1.0], [], [1.0, 1.0])
    return simulate(sys_, full_state(sys_, [0.9], mu=mu0), opts)


def _assert_matches_reference(traj, mu0):
    """Same ledger and samples as a generic run at rtol 1e-12 and atol 1e-14,
    events within 1e-9 and states within 10 rtol of scale."""
    ref = _swing(mu0, generic=True, opts=replace(SWING_OPTS, rtol=1e-12, atol=1e-14))
    assert [(e.index, e.kind) for e in traj.ledger] == [(e.index, e.kind) for e in ref.ledger]
    assert len(traj) == len(ref) and traj.sigma == ref.sigma
    for e, f in zip(traj.ledger, ref.ledger):
        assert abs(e.time - f.time) <= 1e-9
    for name in ("x", "mu"):
        a, b = getattr(traj, name), getattr(ref, name)
        assert np.max(np.abs(a - b)) <= 10 * SWING_OPTS.rtol * max(1.0, np.max(np.abs(b))), name


def test_states_in_an_affine_mode_follow_its_exponential():
    traj = _swing([0.05, 0.0], opts=replace(SWING_OPTS, horizon=12.0))  # DP5(4) to t = 0.077
    assert traj.stats["rhs_evals"] > 0 and traj.stats["cached_steps"] > 0
    field = compiled_field(compose(SWING, [1.0], [], [1.0, 1.0]))
    Y = np.hstack([traj.x, traj.mu])
    checked, start = 0, 0
    for k in range(1, len(traj) + 1):
        if k < len(traj) and traj.sigma[k] == traj.sigma[start]:
            continue
        if field.affine_in(traj.sigma[start], Y[start]):  # from the mode's entry state on
            Z, z0 = field.augmented(traj.sigma[start]), np.append(Y[start], 1.0)
            for j in range(start + 1, k):
                want = (expm((traj.times[j] - traj.times[start]) * Z) @ z0)[:-1]
                assert np.max(np.abs(Y[j] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                checked += 1
        start = k
    assert checked >= 10


def test_a_curved_deactivation_is_located_on_the_exact_path(monkeypatch):
    located = []
    event = _ExactMode.event
    monkeypatch.setattr(_ExactMode, "event",
                        lambda self, i, z: located.append(i) or event(self, i, z))
    traj = _swing([0.0, 0.0], opts=replace(SWING_OPTS, horizon=1.0))  # exact from t = 0
    assert [(e.index, e.kind) for e in traj.ledger] == [(1, "deactivation"), (0, "deactivation")]
    assert 0 in located  # g_0 = 0.5 x'P x + ... crossing zero, on the exact flow
    # Newton with the curved row's exact slope, not a bisection's ~30 halvings
    assert traj.stats["bisection_propagations"] <= 8
    ref = _swing([0.0, 0.0], generic=True, opts=replace(SWING_OPTS, horizon=1.0, rtol=1e-12,
                                                        atol=1e-14))
    assert [(e.index, e.kind) for e in ref.ledger] == [(e.index, e.kind) for e in traj.ledger]
    for e, f in zip(traj.ledger, ref.ledger):
        assert abs(e.time - f.time) <= 1e-9


def test_a_tiny_clamped_multiplier_keeps_the_mode_on_dp5():
    # mu_0 = 1e-13 is clamped (<= MU_ZERO_TOL) but -mu_0 P x stays in the field,
    # which the affine matrix drops, so the mode stays on DP5(4)
    short = _swing([1e-13, 0.0], opts=replace(SWING_OPTS, horizon=0.3))
    assert 0 in short.sigma[0] and short.stats["rhs_evals"] > 0
    assert short.stats["cached_steps"] == 0
    # once row 0 has left and is clamped again at mu_0 = 0, the same mode runs
    # exactly: one sigma on both paths, each with its own mode cache
    traj = _swing([1e-13, 0.0])
    assert [(e.index, e.kind) for e in traj.ledger][-1] == (0, "activation")
    assert traj.sigma[-1] == short.sigma[-1] == frozenset({0})
    assert traj.stats["cached_steps"] > 0
    _assert_matches_reference(traj, [1e-13, 0.0])


def test_an_exact_chunk_never_hands_a_stage_to_the_next_dp5_step():
    # DP5(4) -> exact -> DP5(4) -> exact: mu_0 reaches 0 at t = 0.077, g_0
    # rises through 0 at t = 0.31 and mu_0 reaches 0 again at t = 3.71
    traj = _swing([0.05, 0.0])
    assert [(e.index, e.kind) for e in traj.ledger] == [
        (1, "deactivation"), (0, "activation"), (0, "deactivation"), (0, "activation")]
    _assert_matches_reference(traj, [0.05, 0.0])
    # a pending FSAL stage when an exact chunk starts is dropped: seeded with
    # NaN, the DP5(4) step after the chunk would diverge
    sys_ = compose(SWING, [1.0], [], [1.0, 1.0])
    start = full_state(sys_, [0.9], mu=[0.0, 0.0])
    engine = _Engine(compiled_field(sys_), sys_.proj, np.array([0.9, 0.0, 0.0]), start.sigma,
                     SWING_OPTS)
    engine.k_last = np.full(3, np.nan)
    try:
        engine.run()
    except DivergenceError:
        pytest.fail("a stage from before the exact chunk seeded a DP5(4) step")
    assert engine.ledger == _swing([0.0, 0.0]).ledger
