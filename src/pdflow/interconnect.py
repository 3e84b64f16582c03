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

A run evaluates this field through one object: `GenericField` for any
problem, or its per-mode compilation `AffineField` when the problem's types
make each mode affine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brayton_moser import BmSystem
from .problem import ConvexProblem, Quadratic
from .switching import ProjectionSystem, compute_sigma

__all__ = [
    "AffineField",
    "GenericField",
    "affine_field",
    "ComposedSystem",
    "FullState",
    "compose",
    "full_state",
    "composed_vector_field",
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

    One evaluation of `GenericField.rates` under a constant input v, split
    into its three blocks. With all mu at zero and every g strictly negative
    this reduces exactly to the standalone equality flow with u = 0.
    """
    y = np.concatenate([state.x, state.lam, state.mu])
    out = GenericField(sys, _constant(v)).rates(0.0, y, sorted(state.sigma))
    n, imu = sys.n, sys.n + sys.m
    return out[:n], out[n:imu], out[imu:]


def _constant(v):
    """None, or the callable t -> v of a constant input vector."""
    if v is None:
        return None
    v = np.asarray(v, dtype=float)
    return lambda t: v


class GenericField:
    """The composed field of any problem, evaluated through its oracles.

    The engine state is y = (x, lam, mu) and `v` is None or a callable
    t -> vector. `rates` is the stage field, `g` and `g_rate` the constraint
    values and rates at one state, `derivatives` the field at every sample.
    """

    def __init__(self, sys: ComposedSystem, v=None):
        self.sys = sys
        self.n, self.m, self.p = sys.n, sys.m, sys.p
        self.imu = sys.n + sys.m
        self.obj = sys.problem.objective
        self.A, self.b = sys.problem.equality.A, sys.problem.equality.b
        self.proj = sys.proj
        self.tau_x_inv, self.tau_lam_inv = sys.bm._tau_x_inv, sys.bm._tau_lam_inv
        self.tau_mu = sys.proj.tau_mu
        self.v = v

    def rates(self, t, y, clamped) -> np.ndarray:
        """y' at one state; `clamped` indexes the mode's clamped multipliers (mask or list)."""
        n, m, imu, proj = self.n, self.m, self.imu, self.proj
        x = y[:n]
        grad = self.obj.grad(x)
        if m:
            grad = grad + self.A.T @ y[n:imu]
        mu = y[imu:]
        if self.p and mu.any():
            grad = grad + mu @ proj.grads(x)
        if self.v is not None:
            grad = grad + self.v(t)
        out = np.empty(y.size)
        out[:n] = -(self.tau_x_inv @ grad)
        if m:
            out[n:imu] = self.tau_lam_inv @ (self.A @ x + self.b)
        if self.p:
            g = proj.values(x)
            md = g / self.tau_mu
            md[clamped] = 0.0
            out[imu:] = md
        return out

    def g(self, t, y) -> np.ndarray:
        """Constraint values at one engine state."""
        return self.proj.values(y[: self.n])

    def g_rate(self, t, y, y_dot) -> np.ndarray:
        """d/dt g at one engine state moving at y_dot."""
        return self.proj.grads(y[: self.n]) @ y_dot[: self.n]

    def derivatives(self, Y: np.ndarray, sigmas, times) -> np.ndarray:
        """Field at each row of Y under that row's mode, one stage evaluation per sample."""
        rows = [self.rates(t, y, sorted(s)) for t, y, s in zip(times, Y, sigmas)]
        return np.array(rows).reshape(Y.shape)


class AffineField(GenericField):
    """The composed field of a QP under constant input, compiled per mode.

    With a quadratic objective, affine constraints and a constant input v the
    field is linear inside each mode sigma: y' = M_sigma y + c_sigma for
    y = (x, lam, mu). The augmented matrix [[M, c], [0, 0]] of the mode with
    no index clamped is built once; a mode's matrix zeroes the mu rows of its
    clamped indices and is cached on the mode's first visit. The engine
    propagates a mode exactly by exponentials of its matrix and tests event
    signs with `constraint_values`; `derivatives` uses the mode matrices.
    """

    def __init__(self, sys: ComposedSystem, v=None):
        super().__init__(sys, _constant(v))
        n, m, p = sys.n, sys.m, sys.p
        self.size = n + m + p
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

    def derivatives(self, Y: np.ndarray, sigmas, times=None) -> np.ndarray:
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
    affine); `v` must be None or a constant vector. Returns None otherwise, and
    the run uses a `GenericField`.
    """
    affine_ineq = sys.p == 0 or sys.proj._affine is not None
    if isinstance(sys.problem.objective, Quadratic) and affine_ineq:
        return AffineField(sys, v)
    return None
