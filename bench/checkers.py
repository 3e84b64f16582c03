"""Reference computations the benchmark checks pdflow's outputs against.

Nothing here imports pdflow: every check works from the arrays the
benchmark generated itself, so a fault in the program cannot hide behind
the same fault in its checker.

- `kkt_residuals` / `kkt_ok`: first-order optimality of a primal-dual point
  for  min 0.5 x'Hx + c'x  s.t.  A x + b = 0,  g_i(x) <= 0,  where each g_i
  is affine (row of G, entry of d) or convex quadratic
  (0.5 x'P_i x + q_i'x + r_i).
- `qp_optimum`: the exact optimum of a small QP by enumerating active sets.
- `settle_rate`: the decay rate of the flow linearized at an optimum.
- `welfare_bisection`: the building welfare problem solved by bisection on
  the multiplier of its single supply balance.
- `internal_load`: the documented heat-gain profile of a TOU day.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

KKT_TOL = 1e-5


def kkt_residuals(data: dict, x, lam, mu) -> dict:
    """Max-norm stationarity, primal, dual and complementarity defects.

    `data` holds H, c and optionally A, b (equalities), G, d (affine
    inequalities) and quad, a list of (P, q, r) convex quadratic
    inequalities listed after the affine ones.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    H, c = np.asarray(data["H"], float), np.asarray(data["c"], float)
    grad = H @ x + c
    eq = np.zeros(0)
    A = data.get("A")
    if A is not None and np.size(A):
        A = np.asarray(A, float)
        grad = grad + A.T @ lam
        eq = A @ x + np.asarray(data["b"], float)
    g_vals, g_grads = [], []
    G = data.get("G")
    if G is not None and np.size(G):
        G = np.asarray(G, float)
        g_vals.extend(G @ x + np.asarray(data["d"], float))
        g_grads.extend(G)
    for P, q, r in data.get("quad", ()):
        P, q = np.asarray(P, float), np.asarray(q, float)
        g_vals.append(0.5 * x @ P @ x + q @ x + r)
        g_grads.append(P @ x + q)
    g_vals = np.asarray(g_vals, dtype=float)
    if mu.size != g_vals.size:
        raise ValueError(f"mu has {mu.size} entries, problem has {g_vals.size} inequalities")
    if mu.size:
        grad = grad + mu @ np.vstack(g_grads)
    return {
        "stationarity": float(np.max(np.abs(grad), initial=0.0)),
        "primal_eq": float(np.max(np.abs(eq), initial=0.0)),
        "primal_ineq": float(np.max(g_vals, initial=0.0)),
        "dual": float(np.max(-mu, initial=0.0)),
        "complementarity": float(np.max(np.abs(mu * g_vals), initial=0.0)),
    }


def kkt_ok(data: dict, x, lam, mu, tol: float = KKT_TOL) -> tuple[bool, dict]:
    res = kkt_residuals(data, x, lam, mu)
    return max(res.values()) <= tol, res


def qp_optimum(data: dict, tol: float = 1e-10):
    """(x*, lam*, mu*) of a strictly convex QP with affine constraints.

    Tries every active set of the inequality rows and returns the one whose
    KKT system solution is primal feasible with nonnegative multipliers.
    Meant for the benchmark's small instances (p <= 4).
    """
    H, c = np.asarray(data["H"], float), np.asarray(data["c"], float)
    n = c.size
    A = np.asarray(data["A"], float) if data.get("A") is not None else np.zeros((0, n))
    b = np.asarray(data["b"], float) if data.get("A") is not None else np.zeros(0)
    G = np.asarray(data["G"], float) if data.get("G") is not None else np.zeros((0, n))
    d = np.asarray(data["d"], float) if data.get("G") is not None else np.zeros(0)
    m, p = A.shape[0], G.shape[0]
    for k in range(p + 1):
        for active in itertools.combinations(range(p), k):
            J = np.vstack([A, G[list(active)]])
            K = np.block([[H, J.T], [J, np.zeros((J.shape[0], J.shape[0]))]])
            rhs = np.concatenate([-c, -b, -d[list(active)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:n + m]
            mu = np.zeros(p)
            mu[list(active)] = sol[n + m:]
            if mu.min(initial=0.0) >= -tol and (G @ x + d).max(initial=-1.0) <= tol:
                return x, lam, mu
    raise ValueError("no active set gives a KKT point")


def settle_rate(hess, jac) -> float:
    """Decay rate (1/s) of the primal-dual flow linearized at an optimum.

    With unit time constants and the active constraints' Jacobian `jac`
    (equalities and active inequalities), the flow near the optimum is
    z' = M z with M = [[-hess, -jac'], [jac, 0]]; the rate is -max Re eig(M).
    """
    hess = np.asarray(hess, float)
    jac = np.asarray(jac, float).reshape(-1, hess.shape[0])
    k = jac.shape[0]
    M = np.block([[-hess, -jac.T], [jac, np.zeros((k, k))]])
    return float(-np.max(np.linalg.eigvals(M).real))


def _smooth01(s: float) -> float:
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return 0.5 * (1.0 - math.cos(math.pi * s))


def internal_load(t: float, occupancy_peak: float, solar_peak: float, base_d) -> np.ndarray:
    """Zone heat gains at hour t: base gains plus occupancy and solar terms.

    Occupancy is a cosine-ramped plateau over 8..18 h with 1.5 h ramps;
    solar is a half sine over 6..18 h. The building total is split evenly
    over the zones.
    """
    base = np.asarray(base_d, dtype=float)
    occ = occupancy_peak * _smooth01((t - 8.0) / 1.5) * _smooth01((18.0 - t) / 1.5)
    sol = solar_peak * math.sin(math.pi * (t - 6.0) / 12.0) if 6.0 <= t <= 18.0 else 0.0
    return base + (occ + max(sol, 0.0)) / base.size


def welfare_qp(b: dict) -> dict:
    """The welfare problem over (T_1..T_N, q) as KKT-checker data.

    `b` holds gamma, T_ref, T_min, T_max, R_amb, d (per zone) and T_inf,
    theta, rho1, rho2. Inequalities: lower bounds first, then upper.
    """
    gamma = np.asarray(b["gamma"], float)
    N = gamma.size
    R = np.asarray(b["R_amb"], float)
    H = np.diag(np.concatenate([2.0 * gamma, [2.0 * b["rho1"]]]))
    c = np.concatenate([-2.0 * gamma * np.asarray(b["T_ref"], float), [b["rho2"]]])
    A = np.concatenate([-b["theta"] / R, [-1.0]]).reshape(1, N + 1)
    bb = np.array([b["theta"] * float(np.sum(b["T_inf"] / R + np.asarray(b["d"], float)))])
    G = np.zeros((2 * N, N + 1))
    G[np.arange(N), np.arange(N)] = -1.0
    G[N + np.arange(N), np.arange(N)] = 1.0
    d = np.concatenate([np.asarray(b["T_min"], float), -np.asarray(b["T_max"], float)])
    return {"H": H, "c": c, "A": A, "b": bb, "G": G, "d": d}


def welfare_bisection(b: dict, iters: int = 200) -> tuple[np.ndarray, float]:
    """(T*, q*) of the welfare problem by bisection on the balance multiplier.

    For a fixed multiplier l of  a'T + beta - q = 0  (a_i = -theta/R_i),
    minimizing the Lagrangian gives T_i(l) = clip(T_ref_i - l a_i/(2 gamma_i),
    T_min_i, T_max_i) and q(l) = (l - rho2)/(2 rho1). The balance residual
    a'T(l) + beta - q(l) strictly decreases in l, so its root is bracketed
    and bisected; the optimum is (T(l*), q(l*)).
    """
    gamma = np.asarray(b["gamma"], float)
    T_ref = np.asarray(b["T_ref"], float)
    lo_T, hi_T = np.asarray(b["T_min"], float), np.asarray(b["T_max"], float)
    R = np.asarray(b["R_amb"], float)
    a = -b["theta"] / R
    beta = b["theta"] * float(np.sum(b["T_inf"] / R + np.asarray(b["d"], float)))
    rho1, rho2 = b["rho1"], b["rho2"]

    def primal(l):
        return np.clip(T_ref - l * a / (2.0 * gamma), lo_T, hi_T), (l - rho2) / (2.0 * rho1)

    def residual(l):
        T, q = primal(l)
        return float(a @ T + beta - q)

    lo, hi = -1.0, 1.0
    while residual(lo) < 0.0:
        lo *= 2.0
    while residual(hi) > 0.0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return primal(0.5 * (lo + hi))
