"""Equality-constrained primal-dual gradient flow in Brayton-Moser form.

The flow

    -tau_x xdot   = grad f(x) + A' lam + u
    tau_lam lamdot = h(x),        y = -x

is the gradient of the mixed potential P(z) = f(x) + lam'h(x) through the
indefinite matrix Q = diag{-tau_x, tau_lam}. P itself is indefinite and kept
only as a diagnostic; the certificate-bearing storage is the Krasovskii form

    P_tilde = 0.5 xdot' tau_x xdot + 0.5 lamdot' tau_lam lamdot

whose rate along the flow is -xdot' hess_f(x) xdot - xdot' udot, hence the
system is passive in the differentiated port pair (udot, ydot). Evaluators
here are stateless over frozen system descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import ConvexProblem

__all__ = [
    "BmSystem",
    "as_spd_matrix",
    "bm_vector_field",
    "mixed_potential",
    "krasovskii_storage",
    "storage_rate",
]


def as_spd_matrix(tau, size: int, name: str) -> np.ndarray:
    """Normalize a scalar, diagonal vector, or full matrix to an SPD matrix."""
    arr = np.asarray(tau, dtype=float)
    if arr.ndim == 0:
        arr = np.full(size, float(arr))
    if arr.ndim == 1:
        if arr.size != size:
            raise ValueError(f"{name} has {arr.size} entries, expected {size}")
        if size and arr.min() <= 0:
            raise ValueError(f"{name} must be positive")
        return np.diag(arr)
    if arr.shape != (size, size):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({size}, {size})")
    if not np.allclose(arr, arr.T, atol=1e-12 * max(1.0, np.abs(arr).max(initial=0.0))):
        raise ValueError(f"{name} must be symmetric")
    if size:
        try:
            np.linalg.cholesky(arr)
        except np.linalg.LinAlgError:
            raise ValueError(f"{name} must be positive definite") from None
    return arr


@dataclass(frozen=True)
class BmSystem:
    """Equality-only problem with primal/dual time-constant matrices."""

    problem: ConvexProblem
    tau_x: np.ndarray
    tau_lam: np.ndarray
    _tau_x_inv: np.ndarray = field(default=None, repr=False, compare=False)
    _tau_lam_inv: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.problem.p != 0:
            raise ValueError("BmSystem requires a problem with no inequalities")
        n, m = self.problem.n, self.problem.m
        tau_x = as_spd_matrix(self.tau_x, n, "tau_x")
        tau_lam = as_spd_matrix(self.tau_lam, m, "tau_lam")
        object.__setattr__(self, "tau_x", tau_x)
        object.__setattr__(self, "tau_lam", tau_lam)
        object.__setattr__(self, "_tau_x_inv", np.linalg.inv(tau_x) if n else tau_x)
        object.__setattr__(self, "_tau_lam_inv", np.linalg.inv(tau_lam) if m else tau_lam)


def bm_vector_field(sys: BmSystem, x, lam, u=None):
    """(xdot, lamdot) of the flow; pass u=None for the unforced system."""
    prob = sys.problem
    grad = prob.objective.grad(x)
    if prob.m:
        grad = grad + prob.equality.A.T @ lam
    if u is not None:
        grad = grad + u
    x_dot = -(sys._tau_x_inv @ grad)
    lam_dot = sys._tau_lam_inv @ prob.eq_values(x) if prob.m else np.zeros(0)
    return x_dot, lam_dot


def mixed_potential(sys: BmSystem, x, lam) -> float:
    """P(z) = f(x) + lam'h(x). Indefinite; diagnostic only."""
    val = sys.problem.objective.value(x)
    if sys.problem.m:
        val += float(np.asarray(lam) @ sys.problem.eq_values(x))
    return float(val)


def krasovskii_storage(sys: BmSystem, x_dot, lam_dot) -> float:
    """P_tilde = 0.5 xdot' tau_x xdot + 0.5 lamdot' tau_lam lamdot (>= 0)."""
    val = 0.5 * float(np.asarray(x_dot) @ sys.tau_x @ np.asarray(x_dot))
    if sys.problem.m:
        val += 0.5 * float(np.asarray(lam_dot) @ sys.tau_lam @ np.asarray(lam_dot))
    return val


def storage_rate(sys: BmSystem, x, lam, u=None, u_dot=None) -> float:
    """Closed-form d/dt of the Krasovskii storage along the flow.

    Equals -xdot' hess_f(x) xdot - xdot' udot, which requires h affine so the
    constraint Hessians vanish. Nonpositive whenever udot = 0.
    """
    x_dot, _ = bm_vector_field(sys, x, lam, u)
    rate = -float(x_dot @ sys.problem.objective.hess(x) @ x_dot)
    if u_dot is not None:
        rate -= float(x_dot @ np.asarray(u_dot, dtype=float))
    return rate
