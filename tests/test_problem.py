import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdflow.problem
from pdflow import (
    InfeasibleProblemError,
    KktPoint,
    KktResidual,
    OracleCapabilityError,
    SmoothScalar,
    active_set_oracle,
    kkt_residual,
    lagrangian_gradient,
    quadratic_problem,
)

from conftest import central_grad, central_jac, enumeration_oracle, random_qp_instance

# f = (x-2)^2 as 0.5*x'Hx + c'x + const
SCALAR = dict(H=[[2.0]], c=[-4.0], const=4.0)


def test_lagrangian_gradient_unconstrained_stationary():
    prob = quadratic_problem(**SCALAR)
    grad, h, g = lagrangian_gradient(prob, [2.0], [], [])
    assert grad == pytest.approx([0.0])
    assert h.size == 0 and g.size == 0


def test_lagrangian_gradient_equality_kkt_point():
    prob = quadratic_problem(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[-2.0])
    grad, h, g = lagrangian_gradient(prob, [1.0, 1.0], [-2.0], [])
    assert np.allclose(grad, 0.0)
    assert h == pytest.approx([0.0])


def test_lagrangian_gradient_inequality_kkt_point():
    # 2(x-2) + mu = 0 at x = 1 forces mu = 2
    prob = quadratic_problem(**SCALAR, G=[[1.0]], d=[-1.0])
    grad, h, g = lagrangian_gradient(prob, [1.0], [], [2.0])
    assert grad == pytest.approx([0.0])
    assert g == pytest.approx([0.0])


def test_lagrangian_gradient_dimension_mismatch():
    prob = quadratic_problem(**SCALAR)
    with pytest.raises(ValueError):
        lagrangian_gradient(prob, [1.0, 2.0], [], [])
    with pytest.raises(ValueError):
        lagrangian_gradient(prob, [1.0], [0.5], [])


def test_kkt_residual_at_solution_and_off_solution():
    prob = quadratic_problem(**SCALAR, G=[[1.0]], d=[-1.0])
    res = kkt_residual(prob, KktPoint([1.0], [], [2.0]))
    assert res.max_defect <= 1e-12
    res2 = kkt_residual(prob, KktPoint([2.0], [], [0.0]))
    assert res2.inequality == pytest.approx(1.0)  # g(2) = 1 violated
    assert res2.stationarity == pytest.approx(0.0)
    assert res2.equality == 0.0 and res2.complementarity == pytest.approx(0.0)


def test_inequality_rows_need_d():
    with pytest.raises(ValueError, match="G given without d"):
        quadratic_problem(**SCALAR, G=[[1.0]], d=None)


def test_max_defect_propagates_nan():
    assert np.isnan(KktResidual(1e-16, 0.0, np.nan, np.nan, 0.0).max_defect)
    assert KktResidual(1e-16, 0.0, 3.0, 2.0, 0.0).max_defect == 3.0


def test_oracle_never_returns_a_point_with_nan_defect(monkeypatch):
    monkeypatch.setattr(pdflow.problem, "kkt_residual",
                        lambda problem, point: KktResidual(0.0, 0.0, np.nan, 0.0, 0.0))
    with pytest.raises(InfeasibleProblemError, match="nan"):
        active_set_oracle(quadratic_problem(**SCALAR))


def test_oracle_unconstrained_minimum():
    prob = quadratic_problem([[2.0]], [-6.0], 9.0)  # (x-3)^2
    pt = active_set_oracle(prob)
    assert pt.x == pytest.approx([3.0])


def test_oracle_equality_qp():
    prob = quadratic_problem(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[-2.0])
    pt = active_set_oracle(prob)
    assert pt.x == pytest.approx([1.0, 1.0])
    assert pt.lam == pytest.approx([-2.0])


def test_oracle_scalar_inequality():
    prob = quadratic_problem(**SCALAR, G=[[1.0]], d=[-1.0])
    pt = active_set_oracle(prob)
    assert pt.x == pytest.approx([1.0])
    assert pt.mu == pytest.approx([2.0])


def test_oracle_infeasible():
    # x <= -1 and x >= 1 simultaneously
    prob = quadratic_problem([[2.0]], [0.0], G=[[1.0], [-1.0]], d=[1.0, 1.0])
    with pytest.raises(InfeasibleProblemError):
        active_set_oracle(prob)


def test_oracle_capability_bounds():
    n = 2
    G = np.vstack([np.eye(n)] * 11)  # 22 inequality rows, none active at x = 0
    d = -np.ones(22)
    prob = quadratic_problem(np.eye(n), np.zeros(n), G=G, d=d)
    pt = active_set_oracle(prob)
    assert np.array_equal(pt.x, np.zeros(n))
    assert np.array_equal(pt.mu, np.zeros(22))
    assert kkt_residual(prob, pt).max_defect <= 1e-10

    smooth = SmoothScalar(lambda x: float(x[0] ** 4), lambda x: np.array([4 * x[0] ** 3]),
                          lambda x: np.array([[12 * x[0] ** 2]]))
    from pdflow import AffineMap, ConvexProblem
    nonquad = ConvexProblem(smooth, AffineMap(np.zeros((0, 1)), np.zeros(0)), (), 1)
    with pytest.raises(OracleCapabilityError):
        active_set_oracle(nonquad)


# (problem kwargs, expected x, expected mu or None where mu is not unique)
EDGE_CASES = {
    # LICQ fails: the same bound twice; only the split of mu is free
    "duplicate-rows": (dict(**SCALAR, G=[[1.0], [1.0]], d=[-1.0, -1.0]), [1.0], None),
    # g = 0 at the optimum with mu = 0
    "weakly-active": (dict(H=2 * np.eye(2), c=[-2.0, -6.0], G=np.eye(2), d=[-1.0, -2.0]),
                      [1.0, 2.0], [0.0, 2.0]),
    # the second bound is dependent on the first: a dual-only step drops the first
    "dependent-drop": (dict(**SCALAR, G=[[10.0], [1.0]], d=[-10.0, -0.75]), [0.75], [0.0, 2.5]),
    "rank-deficient-equalities": (dict(H=2 * np.eye(2), c=np.zeros(2),
                                       A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[-2.0, -4.0]),
                                  [1.0, 1.0], []),
    "p=0": (dict(H=2 * np.eye(2), c=[-2.0, 0.0], A_eq=[[1.0, -1.0]], b_eq=[0.0]),
            [0.5, 0.5], []),
    "m=0": (dict(H=2 * np.eye(2), c=[-4.0, -4.0], G=[[1.0, 1.0], [1.0, -1.0]], d=[-2.0, -3.0]),
            [1.0, 1.0], [2.0, 0.0]),
    "equality-and-bound": (dict(H=2 * np.eye(2), c=[-6.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[-2.0],
                                G=[[1.0, 0.0]], d=[-1.5]),
                           [1.5, 0.5], [4.0]),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_oracle_edge_cases(name):
    kwargs, x_exp, mu_exp = EDGE_CASES[name]
    prob = quadratic_problem(**kwargs)
    pt = active_set_oracle(prob)
    assert pt.x == pytest.approx(x_exp, abs=1e-12)
    if mu_exp is not None:
        assert pt.mu == pytest.approx(mu_exp, abs=1e-12)
    # with dependent equality rows every enumerated KKT system is singular
    if np.linalg.matrix_rank(prob.equality.A) == prob.m:
        ref = enumeration_oracle(prob)
        assert np.allclose(pt.x, ref.x, atol=1e-12)
        if mu_exp is not None:
            assert np.allclose(pt.mu, ref.mu, atol=1e-12)
    assert kkt_residual(prob, pt).max_defect <= 1e-10
    inactive = prob.ineq_values(pt.x) < -1e-9
    assert np.all(pt.mu[inactive] == 0.0)


def test_oracle_accepts_an_empty_equality_block():
    from pdflow import AffineMap, AffineScalar, ConvexProblem, Quadratic
    prob = ConvexProblem(Quadratic([[2.0]], [-4.0], 4.0), AffineMap(np.zeros(0), np.zeros(0)),
                         (AffineScalar([1.0], -1.0),), 1)
    pt = active_set_oracle(prob)
    assert pt.x == pytest.approx([1.0])
    assert pt.mu == pytest.approx([2.0])


def test_oracle_inconsistent_equalities():
    prob = quadratic_problem(2 * np.eye(2), np.zeros(2),
                             A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[-2.0, -3.0])
    with pytest.raises(InfeasibleProblemError):
        active_set_oracle(prob)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    problem, _ = random_qp_instance(rng, p_max=12)
    pt = active_set_oracle(problem)
    ref = enumeration_oracle(problem)
    assert np.allclose(pt.x, ref.x, rtol=0.0, atol=1e-10)
    assert np.allclose(pt.lam, ref.lam, rtol=0.0, atol=1e-10)
    g = problem.ineq_values(ref.x)
    strict = np.all((ref.mu > 1e-6) != (g > -1e-6))
    if strict:
        assert np.array_equal(pt.mu > 1e-6, ref.mu > 1e-6)
        assert np.array_equal(pt.mu == 0.0, ref.mu == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_points_have_tiny_residual(seed):
    rng = np.random.default_rng(seed)
    problem, _ = random_qp_instance(rng)
    point = active_set_oracle(problem)
    assert kkt_residual(problem, point).max_defect <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lagrangian_gradient_linear_in_multipliers(seed):
    rng = np.random.default_rng(seed)
    problem, x0 = random_qp_instance(rng)
    x = x0 + rng.uniform(-1, 1, problem.n)
    l1, l2 = rng.normal(size=problem.m), rng.normal(size=problem.m)
    m1, m2 = rng.uniform(0, 1, problem.p), rng.uniform(0, 1, problem.p)
    g_sum, _, _ = lagrangian_gradient(problem, x, l1 + l2, m1 + m2)
    g1, _, _ = lagrangian_gradient(problem, x, l1, m1)
    g2, _, _ = lagrangian_gradient(problem, x, l2, m2)
    extra_f = problem.objective.grad(x)
    assert np.allclose(g_sum, g1 + g2 - extra_f, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    problem, x0 = random_qp_instance(rng)
    x = x0 + rng.uniform(-0.5, 0.5, problem.n)
    obj = problem.objective
    fd_grad = central_grad(obj.value, x)
    assert np.allclose(obj.grad(x), fd_grad, rtol=1e-6, atol=1e-6)
    fd_hess = central_jac(obj.grad, x)
    assert np.allclose(obj.hess(x), fd_hess, rtol=1e-6, atol=1e-6)
    for con in problem.inequalities:
        assert np.allclose(con.grad(x), central_grad(con.value, x), rtol=1e-6, atol=1e-6)
