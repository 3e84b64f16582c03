"""The per-mode compiled field of QCQP runs against the generic oracle path.

A problem with a Quadratic objective and affine or quadratic inequalities
under a constant input runs on `QuadraticField`: each DP5(4) stage is one
matvec plus one bilinear product. Wrapping the same data in SmoothScalar
(`as_generic`) sends it through `GenericField`, which calls the oracles at
every stage. Both paths take the same steps, so they must produce the same
run: switch ledgers, sample counts, event times, states and derived columns.
"""

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
from pdflow.interconnect import GenericField, QuadraticField, affine_field, compiled_field
from conftest import as_generic

DRAWS = 40
OPTS = IntegratorOptions(horizon=12.0, dt_max=0.2, record_stride=1.0, rtol=1e-9)
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
    """(compiled, generic) runs of DRAWS random QCQPs."""
    rng = np.random.default_rng(19)
    pairs = []
    for _ in range(DRAWS):
        problem, taus, x0, mu0 = random_qcqp(rng)
        runs = []
        for prob in (problem, as_generic(problem)):
            sys_ = compose(prob, *taus)
            runs.append(simulate(sys_, full_state(sys_, x0, None, mu0), OPTS))
        pairs.append(runs)
    return pairs


def test_compiled_and_generic_qcqp_runs_agree(path_pairs):
    assert sum(len(c.ledger) for c, _ in path_pairs) >= DRAWS  # the draws do switch
    for compiled, generic in path_pairs:
        assert [(e.index, e.kind) for e in compiled.ledger] == \
            [(e.index, e.kind) for e in generic.ledger]
        for e, f in zip(compiled.ledger, generic.ledger):
            assert abs(e.time - f.time) <= 1e-9
        assert len(compiled) == len(generic)
        assert compiled.sigma == generic.sigma
        assert compiled.stats == generic.stats  # the same steps and stage evaluations
        for name in ("x", "lam", "mu"):
            a, b = getattr(compiled, name), getattr(generic, name)
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-10, name
        for name in COLUMNS:
            a, b = getattr(compiled, name), getattr(generic, name)
            scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-7 * scale, name


def test_quadratic_field_matches_composed_vector_field():
    rng = np.random.default_rng(23)
    for _ in range(20):
        problem, taus, x0, _ = random_qcqp(rng)
        sys_ = compose(problem, *taus)
        v = rng.normal(size=problem.n)
        field = compiled_field(sys_, v)
        assert isinstance(field, QuadraticField)
        p = problem.p
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
            assert np.allclose(field.stage(st.sigma, mask)(0.0, Y[k]), ref,
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(D[k], ref, rtol=1e-12, atol=1e-12)


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
    assert affine_field(sys_) is None
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
