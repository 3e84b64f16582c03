"""The per-mode compiled field of affine runs against the generic oracle path.

Wrapping a QP's objective and inequalities in SmoothScalar hides their types,
so `simulate` integrates the same data through the stage-wise oracle closure.
Both paths must produce the same run: endpoints, switch ledgers, event times
and sample counts.
"""

import numpy as np
import pytest

from pdflow import (
    ConvexProblem,
    FullState,
    IntegratorOptions,
    QuadraticScalar,
    SmoothScalar,
    compose,
    composed_vector_field,
    full_state,
    load_scenario,
    quadratic_problem,
    simulate,
)
from pdflow.interconnect import AffineField, compiled_field
from conftest import random_qp_instance
from test_acceptance import BATCH_OPTS, BATCH_SIZE, MASTER_SEED


def _as_smooth(problem: ConvexProblem) -> ConvexProblem:
    wrap = lambda fn: SmoothScalar(fn.value, fn.grad, fn.hess)
    return ConvexProblem(
        wrap(problem.objective), problem.equality,
        tuple(wrap(g) for g in problem.inequalities), problem.n,
    )


def _both_paths(problem, taus, x0, lam0, mu0, opts):
    runs = []
    for prob in (problem, _as_smooth(problem)):
        sys_ = compose(prob, *taus)
        runs.append(simulate(sys_, full_state(sys_, x0, lam0, mu0), opts))
    return runs


@pytest.fixture(scope="module")
def path_pairs(scenario_dir):
    """(compiled, generic) runs of every acceptance-batch instance, then the four-zone run."""
    rng = np.random.default_rng(MASTER_SEED)
    pairs = []
    for _ in range(BATCH_SIZE):
        problem, anchor = random_qp_instance(rng)
        taus = (np.ones(problem.n), np.ones(problem.m), np.ones(problem.p))
        x0 = anchor + rng.uniform(-1.0, 1.0, problem.n)
        mu0 = rng.uniform(0.0, 1.0, problem.p)
        pairs.append(_both_paths(problem, taus, x0, np.zeros(problem.m), mu0, BATCH_OPTS))
    scn = load_scenario(scenario_dir / "hvac_four_zone.json")
    sys_ = scn.composed
    taus = (sys_.bm.tau_x, sys_.bm.tau_lam, sys_.proj.tau_mu)
    init = scn.initial
    pairs.append(_both_paths(scn.problem, taus, init.x, init.lam, init.mu, scn.opts))
    return pairs


def test_compiled_and_generic_paths_agree(path_pairs):
    worst_end = worst_time = 0.0
    for compiled, generic in path_pairs:
        assert len(compiled) == len(generic)
        a, b = compiled.final_state, generic.final_state
        for u, w in ((a.x, b.x), (a.lam, b.lam), (a.mu, b.mu)):
            worst_end = max(worst_end, float(np.max(np.abs(u - w), initial=0.0)))
        assert [(e.index, e.kind) for e in compiled.ledger] == \
            [(e.index, e.kind) for e in generic.ledger]
        for e, f in zip(compiled.ledger, generic.ledger):
            worst_time = max(worst_time, abs(e.time - f.time))
    assert worst_end <= 1e-10
    assert worst_time <= 1e-7


def test_paths_record_the_same_samples_and_derived_columns(path_pairs):
    # the compiled path derives these per mode segment, the generic one per sample
    columns = ("times", "x", "lam", "mu", "g", "x_dot", "lam_dot", "mu_dot", "p_tilde",
               "s_sigma", "s_tilde", "power_eq", "power_ineq", "power_ext")
    for compiled, generic in path_pairs:
        assert compiled.sigma == generic.sigma
        assert np.array_equal(compiled.event_pre, generic.event_pre)
        for name in columns:
            a, b = getattr(compiled, name), getattr(generic, name)
            scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-7 * scale, name


def test_cached_step_serves_most_batch_steps(path_pairs):
    batch = path_pairs[:BATCH_SIZE]
    attempts = sum(c.stats["step_attempts"] for c, _ in batch)
    cached = sum(c.stats["cached_steps"] for c, _ in batch)
    assert cached >= 0.6 * attempts
    assert all(g.stats["cached_steps"] == 0 for _, g in path_pairs)
    # the cached step replaces seven field evaluations per step
    rhs = lambda runs: sum(r.stats["rhs_evals"] for r in runs)
    assert rhs(c for c, _ in batch) < 0.5 * rhs(g for _, g in batch)


def test_generic_path_locates_events_in_few_newton_iterations(path_pairs):
    # Newton with the slopes the field gives (mu_dot_i off sigma, -d/dt g_i on
    # it), where bisection on the step length took about 27 propagations per event
    generic = [g for _, g in path_pairs]
    events = sum(len(g.ledger) for g in generic)
    iterations = sum(g.stats["bisection_propagations"] for g in generic)
    assert events >= BATCH_SIZE
    assert iterations <= 3.5 * events


def test_compiled_field_matches_composed_vector_field():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem, anchor = random_qp_instance(rng)
        sys_ = compose(problem, rng.uniform(0.5, 2.0, problem.n),
                       rng.uniform(0.5, 2.0, problem.m), rng.uniform(0.5, 2.0, problem.p))
        v = rng.normal(size=problem.n)
        field = compiled_field(sys_, v)
        assert isinstance(field, AffineField)
        states = [
            FullState(anchor + rng.normal(size=problem.n), rng.normal(size=problem.m),
                      rng.uniform(0.0, 1.0, problem.p),
                      frozenset(int(i) for i in np.flatnonzero(rng.random(problem.p) < 0.5)))
            for _ in range(5)
        ]
        Y = np.array([np.concatenate([s.x, s.lam, s.mu]) for s in states])
        D = field.derivatives(Y, [s.sigma for s in states])
        for k, st in enumerate(states):
            ref = np.concatenate(composed_vector_field(sys_, st, v))
            assert np.allclose(D[k], ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(field.constraint_values(Y[:, :problem.n]),
                           [sys_.proj.values(s.x) for s in states], atol=1e-12)


def test_path_is_chosen_from_the_problem_types():
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sys_ = compose(prob, [1.0], [], [1.0])
    assert isinstance(compiled_field(sys_), AffineField)
    assert compiled_field(compose(_as_smooth(prob), [1.0], [], [1.0])) is None
    curved = ConvexProblem(prob.objective, prob.equality,
                           (QuadraticScalar([[1.0]], [0.0], -1.0),), 1)
    assert not isinstance(compiled_field(compose(curved, [1.0], [], [1.0])), AffineField)

    opts = IntegratorOptions(horizon=4.0, dt_max=0.05, record_stride=0.5, rtol=1e-6)
    start = full_state(sys_, [0.0], mu=[0.5])
    assert simulate(sys_, start, opts).stats["cached_steps"] > 0
    assert simulate(sys_, start, opts, v=[0.3]).stats["cached_steps"] > 0
    varying = simulate(sys_, start, opts, v=lambda t: np.array([np.sin(t)]),
                       v_dot=lambda t: np.array([np.cos(t)]))
    assert varying.stats["cached_steps"] == 0
