"""Power-conserving interconnection of the equality flow and the multiplier dynamics.

Coupling the two subsystems through u = y_tilde + v and u_tilde = x yields the
full primal-dual gradient dynamics

    -tau_x xdot   = grad f(x) + A' lam + sum mu_i grad g_i(x) + v
    tau_lam lamdot = h(x)
    tau_mu mudot   = projected g(x)

whose equilibria with v = 0 are exactly the KKT points. The composite storage
S_tilde = P_tilde + S_sigma then dissipates through the external port alone:
the equality-port power -(ydot_tilde + vdot)'xdot and the inequality-port
power xdot'ydot_tilde cancel, leaving -vdot'xdot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brayton_moser import BmSystem, bm_vector_field, krasovskii_storage
from .problem import ConvexProblem, Quadratic
from .switching import (
    ProjectionSystem,
    compute_sigma,
    mode_multiplier_rates,
    output_port,
    output_port_rate,
    switched_storage,
)

__all__ = [
    "AffineField",
    "affine_field",
    "ComposedSystem",
    "FullState",
    "PortPower",
    "compose",
    "full_state",
    "composed_vector_field",
    "composite_storage",
    "port_power",
]


@dataclass(frozen=True)
class ComposedSystem:
    """Equality flow plus projection dynamics sharing the primal variable."""

    problem: ConvexProblem
    bm: BmSystem
    proj: ProjectionSystem

    def __post_init__(self):
        if self.proj.n != self.problem.n:
            raise ValueError("projection block dimension disagrees with problem")

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def m(self) -> int:
        return self.problem.m

    @property
    def p(self) -> int:
        return self.problem.p


def compose(problem: ConvexProblem, tau_x, tau_lam, tau_mu) -> ComposedSystem:
    """Build the interconnected system from one problem and its time constants."""
    bm = BmSystem(problem.equality_part(), tau_x, tau_lam)
    proj = ProjectionSystem(problem.inequalities, tau_mu, problem.n)
    return ComposedSystem(problem, bm, proj)


@dataclass(frozen=True)
class FullState:
    """Hybrid state (x, lam, mu) plus the clamped index set sigma."""

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    sigma: frozenset

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "lam", np.atleast_1d(lam) if lam.size else np.zeros(0))
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", np.atleast_1d(mu) if mu.size else np.zeros(0))
        if self.mu.size and self.mu.min() < 0:
            raise ValueError("mu must be nonnegative")


def full_state(sys: ComposedSystem, x, lam=None, mu=None) -> FullState:
    """Assemble a consistent state, computing sigma from (mu, g(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.zeros(sys.m) if lam is None else lam
    mu = np.zeros(sys.p) if mu is None else mu
    g_vals = sys.proj.values(x)
    sigma = compute_sigma(mu, g_vals)
    return FullState(x, lam, mu, sigma)


def composed_vector_field(sys: ComposedSystem, state: FullState, v=None):
    """(xdot, lamdot, mudot) of the interconnected dynamics under state.sigma.

    With all mu at zero and every g strictly negative this reduces exactly to
    the standalone equality flow with u = 0.
    """
    u_eff = None
    if state.mu.size and state.mu.any():
        u_eff = output_port(sys.proj, state.x, state.mu)
    if v is not None:
        v = np.asarray(v, dtype=float)
        u_eff = v if u_eff is None else u_eff + v
    x_dot, lam_dot = bm_vector_field(sys.bm, state.x, state.lam, u_eff)
    g_vals = sys.proj.values(state.x)
    mu_dot = mode_multiplier_rates(sys.proj, g_vals, state.sigma)
    return x_dot, lam_dot, mu_dot


def composite_storage(sys: ComposedSystem, state: FullState, derivatives) -> float:
    """S_tilde = P_tilde + S_sigma; zero exactly when all derivatives vanish."""
    x_dot, lam_dot, mu_dot = derivatives
    return krasovskii_storage(sys.bm, x_dot, lam_dot) + switched_storage(
        sys.proj, state.sigma, mu_dot
    )


@dataclass(frozen=True)
class PortPower:
    """Instantaneous powers at the three ports of the interconnection."""

    equality: float
    inequality: float
    external: float


def port_power(sys: ComposedSystem, state: FullState, derivatives, v_dot=None) -> PortPower:
    """Power record used by the certificate monitor.

    equality  = udot' ydot with u = y_tilde + v and y = -x
    inequality = u_s' y_s  with u_s = xdot and y_s = d/dt y_tilde
    external  = -vdot' xdot (zero whenever v is constant)
    """
    x_dot, lam_dot, mu_dot = derivatives
    y_rate = output_port_rate(sys.proj, state.x, state.mu, mu_dot, x_dot)
    inequality = float(x_dot @ y_rate)
    if v_dot is None:
        external = 0.0
        equality = -inequality
    else:
        v_dot = np.asarray(v_dot, dtype=float)
        external = -float(v_dot @ x_dot)
        equality = -float((y_rate + v_dot) @ x_dot)
    return PortPower(equality=equality, inequality=inequality, external=external)


class AffineField:
    """The composed field of a QP under constant input, compiled per mode.

    With a quadratic objective, affine constraints and a constant input v the
    field is linear inside each mode sigma: y' = M_sigma y + c_sigma for
    y = (x, lam, mu). The augmented matrix [[M, c], [0, 0]] of the mode with
    no index clamped is built once; a mode's matrix zeroes the mu rows of its
    clamped indices and is cached on the mode's first visit.
    """

    def __init__(self, sys: ComposedSystem, v=None):
        n, m, p = sys.n, sys.m, sys.p
        self.imu, self.size = n + m, n + m + p
        obj, eq = sys.problem.objective, sys.problem.equality
        tx, tl = sys.bm._tau_x_inv, sys.bm._tau_lam_inv
        self.G, self.d = sys.proj._affine or (np.zeros((0, n)), np.zeros(0))
        c = obj.c if v is None else obj.c + np.asarray(v, dtype=float)
        imu, size = self.imu, self.size
        Z = np.zeros((size + 1, size + 1))
        Z[:n, :n] = -(tx @ obj.H)
        Z[:n, size] = -(tx @ c)
        if m:
            Z[:n, n:imu] = -(tx @ eq.A.T)
            Z[n:imu, :n] = tl @ eq.A
            Z[n:imu, size] = tl @ eq.b
        if p:
            tau = sys.proj.tau_mu
            Z[:n, imu:size] = -(tx @ self.G.T)
            Z[imu:size, :n] = self.G / tau[:, None]
            Z[imu:size, size] = self.d / tau
        self._modes = {frozenset(): Z}

    def augmented(self, sigma: frozenset) -> np.ndarray:
        """[[M_sigma, c_sigma], [0, 0]]; treat as read-only."""
        Z = self._modes.get(sigma)
        if Z is None:
            Z = self._modes[frozenset()].copy()
            Z[[self.imu + i for i in sorted(sigma)]] = 0.0
            self._modes[sigma] = Z
        return Z

    def derivatives(self, Y: np.ndarray, sigmas) -> np.ndarray:
        """Field at each row of Y under that row's mode, one matmul per run of equal modes."""
        D = np.empty_like(Y)
        size = self.size
        start = 0
        for k in range(1, len(sigmas) + 1):
            if k == len(sigmas) or sigmas[k] != sigmas[start]:
                Z = self.augmented(sigmas[start])
                D[start:k] = Y[start:k] @ Z[:size, :size].T + Z[:size, size]
                start = k
        return D

    def constraint_values(self, X: np.ndarray) -> np.ndarray:
        """g at each row of X."""
        return X @ self.G.T + self.d


def affine_field(sys: ComposedSystem, v=None) -> AffineField | None:
    """Compile the field when the problem's types make it affine per mode.

    Needs a Quadratic objective and affine inequalities (equalities are always
    affine); `v` must be None or a constant vector. Returns None otherwise.
    """
    affine_ineq = sys.p == 0 or sys.proj._affine is not None
    if isinstance(sys.problem.objective, Quadratic) and affine_ineq:
        return AffineField(sys, v)
    return None
