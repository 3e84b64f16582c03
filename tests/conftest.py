import numpy as np
import pytest

from pathlib import Path

from pdflow import (
    ConvexProblem,
    InfeasibleProblemError,
    KktPoint,
    compose,
    full_state,
    kkt_residual,
    quadratic_problem,
)
from pdflow.problem import quadratic_data

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def central_grad(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def central_jac(fn, x, h=1e-5):
    """Row j is the central difference of output component j."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fn(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = np.atleast_1d(np.asarray(fn(x + e), dtype=float))
        fm = np.atleast_1d(np.asarray(fn(x - e), dtype=float))
        J[:, i] = (fp - fm) / (2 * h)
    return J


def random_qp_instance(rng, n_max=5, m_max=2, p_max=4):
    """Feasible quadratic/affine instance with Hessian eigenvalues in [0.5, 5].

    Equalities and inequalities are anchored at a common interior point so the
    problem is feasible with a strict inequality margin (Slater holds).
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, min(m_max, n) + 1))
    p = int(rng.integers(0, p_max + 1))
    eigs = rng.uniform(0.5, 5.0, n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = Q @ np.diag(eigs) @ Q.T
    H = 0.5 * (H + H.T)
    c = rng.uniform(-2.0, 2.0, n)
    x_anchor = rng.uniform(-1.0, 1.0, n)
    A = b = None
    if m:
        A = rng.normal(size=(m, n))
        A, _ = np.linalg.qr(A.T)
        A = A.T[:m]
        b = -(A @ x_anchor)
    G = d = None
    if p:
        G = rng.normal(size=(p, n))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        d = -(G @ x_anchor) - rng.uniform(0.2, 1.0, p)
    problem = quadratic_problem(H, c, 0.0, A, b, G, d)
    return problem, x_anchor


def composed_for(problem: ConvexProblem):
    return compose(
        problem, np.ones(problem.n), np.ones(problem.m), np.ones(max(problem.p, 0))
    )


def initial_for(problem, rng, x_anchor):
    sys = composed_for(problem)
    x0 = x_anchor + rng.uniform(-1.0, 1.0, problem.n)
    mu0 = rng.uniform(0.0, 1.0, problem.p)
    return sys, full_state(sys, x0, np.zeros(problem.m), mu0)


def enumeration_oracle(problem: ConvexProblem, tol: float = 1e-10) -> KktPoint:
    """Brute-force reference for `active_set_oracle`: try all 2^p active sets.

    Sets are tried empty first, then by bitmask value. Each solves the
    stationarity plus active-constraint linear system (singular systems are
    skipped); the first candidate that is primal feasible with nonnegative
    multipliers and kkt_residual <= tol is returned.
    """
    H, c, A, b, G, d = quadratic_data(problem)
    n, m, p = problem.n, problem.m, problem.p
    for mask in range(1 << p):
        active = [i for i in range(p) if mask >> i & 1]
        k = len(active)
        size = n + m + k
        kkt = np.zeros((size, size))
        kkt[:n, :n] = H
        J = np.vstack([A, G[active]])
        kkt[n:, :n] = J
        kkt[:n, n:] = J.T
        rhs = np.concatenate([-c, -b, -d[active]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x, lam, mu_active = sol[:n], sol[n : n + m], sol[n + m :]
        if mu_active.min(initial=0.0) < -tol:
            continue
        inactive = [i for i in range(p) if not mask >> i & 1]
        if (G[inactive] @ x + d[inactive]).max(initial=-np.inf) > tol:
            continue
        mu = np.zeros(p)
        mu[active] = np.maximum(mu_active, 0.0)
        point = KktPoint(x, lam, mu)
        if kkt_residual(problem, point).max_defect <= tol:
            return point
    raise InfeasibleProblemError("no active set yields a feasible KKT point")
