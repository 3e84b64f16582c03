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
problem, or its per-mode compilation (`compiled_field`) when the problem's
types make each mode quadratic, y' = M_sigma y + c_sigma + (B_sigma x) y:
`QuadraticField`, or its B-free case `AffineField` (affine inequalities).
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
    "QuadraticField",
    "affine_field",
    "compiled_field",
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
        self.sys, self.proj, self.obj, self.v = sys, sys.proj, sys.problem.objective, v
        self.n, self.m, self.p, self.imu = sys.n, sys.m, sys.p, sys.n + sys.m
        self.A, self.b = sys.problem.equality.A, sys.problem.equality.b
        self.tau_x_inv, self.tau_lam_inv = sys.bm._tau_x_inv, sys.bm._tau_lam_inv
        self.tau_mu = sys.proj.tau_mu

    def rates(self, t, y, clamped) -> np.ndarray:
        """y' at one state; `clamped` indexes the mode's clamped multipliers (mask or list)."""
        n, imu = self.n, self.imu
        x, mu = y[:n], y[imu:]
        grad = self.obj.grad(x)
        if self.m:
            grad = grad + self.A.T @ y[n:imu]
        if self.p and mu.any():
            grad = grad + mu @ self.proj.grads(x)
        if self.v is not None:
            grad = grad + self.v(t)
        mu_dot = self.proj.values(x) / self.tau_mu
        mu_dot[clamped] = 0.0
        lam_dot = self.tau_lam_inv @ (self.A @ x + self.b) if self.m else ()
        return np.concatenate([-(self.tau_x_inv @ grad), lam_dot, mu_dot])

    def stage(self, sigma, clamped):
        """The frozen field of mode sigma as f(t, y); `clamped` is its mask."""
        return lambda t, y: self.rates(t, y, clamped)

    def affine_in(self, sigma, y) -> bool:
        """Whether mode sigma's field is affine at y, so the exact flow applies."""
        return False

    def g(self, t, y) -> np.ndarray:
        """Constraint values at one engine state."""
        return self.proj.values(y[: self.n])

    def g_rate(self, t, y, y_dot) -> np.ndarray:
        """d/dt g at one engine state moving at y_dot."""
        return self.proj.grads(y[: self.n]) @ y_dot[: self.n]

    def derivatives(self, Y: np.ndarray, sigmas, times) -> np.ndarray:
        """Field at each row of Y under that row's mode: the objective and v are
        called per sample, the constraints through `ProjectionSystem.sampled`."""
        n, imu = self.n, self.imu
        X, D = Y[:, :n], np.empty_like(Y)
        g, grads = self.proj.sampled(X, 1)
        grad = np.array([self.obj.grad(x) for x in X]) + np.einsum("ti,tij->tj", Y[:, imu:], grads)
        if self.v is not None:
            grad += [self.v(t) for t in times]
        if self.m:
            grad += Y[:, n:imu] @ self.A
            D[:, n:imu] = (X @ self.A.T + self.b) @ self.tau_lam_inv.T
        D[:, :n] = -(grad @ self.tau_x_inv.T)
        D[:, imu:] = np.where([[i in s for i in range(self.p)] for s in sigmas], 0, g / self.tau_mu)
        return D


class QuadraticField(GenericField):
    """The composed field of a QCQP under constant input, compiled per mode.

    With a quadratic objective, inequalities g_i = 0.5 x'P_i x + G_i x + d_i and
    a constant input v, the field inside mode sigma is y' = M_sigma y + c_sigma
    + (B_sigma x) y for y = (x, lam, mu). B (N, N, n) holds -T_x^-1 P_i in the
    x rows by mu_i columns and 0.5 P_i / tau_mu_i in the mu_i rows by x columns.
    A mode's [[M, c], [0, 0]] and B zero the mu rows of its clamped indices,
    so once every curved row (P_i != 0) is clamped with mu_i = 0 the mode is
    affine, y' = M_sigma y + c_sigma, and runs exactly (`affine_in`).
    """

    def __init__(self, sys: ComposedSystem, v=None):
        super().__init__(sys, _constant(v))
        n, m, p, imu, tau = sys.n, sys.m, sys.p, self.imu, self.tau_mu
        self.size = size = n + m + p
        obj, eq = sys.problem.objective, sys.problem.equality
        tx, tl = sys.bm._tau_x_inv, sys.bm._tau_lam_inv
        self.P, self.G, self.d = sys.proj._stack
        curved = [] if self.P is None else np.flatnonzero(self.P.any(axis=(1, 2))).tolist()
        self.curved, self.curved_mu = frozenset(curved), tuple(imu + i for i in curved)  # P_i != 0
        c = obj.c if v is None else obj.c + np.asarray(v, dtype=float)
        Z = np.zeros((size + 1, size + 1))
        Z[:n, :n] = -(tx @ obj.H)
        Z[:n, size] = -(tx @ c)
        if m:
            Z[:n, n:imu] = -(tx @ eq.A.T)
            Z[n:imu, :n] = tl @ eq.A
            Z[n:imu, size] = tl @ eq.b
        if p:
            Z[:n, imu:size] = -(tx @ self.G.T)
            Z[imu:size, :n] = self.G / tau[:, None]
            Z[imu:size, size] = self.d / tau
        B = None
        if self.P is not None:
            B = np.zeros((size, size, n))
            B[:n, imu:] = -np.einsum("ab,ibk->aik", tx, self.P)
            B[imu:, :n] = 0.5 * self.P / tau[:, None, None]
        self._modes = {frozenset(): (Z, B)}

    def mode(self, sigma: frozenset):
        """(augmented matrix, B) of a mode, B None when every inequality is affine; read-only."""
        found = self._modes.get(sigma)
        if found is None:
            keep = np.ones(self.size + 1, dtype=bool)
            keep[[self.imu + i for i in sorted(sigma)]] = False
            Z, B = self._modes[frozenset()]
            B = B if B is None else np.where(keep[:-1, None, None], B, 0.0)
            found = self._modes[sigma] = np.where(keep[:, None], Z, 0.0), B
        return found

    def augmented(self, sigma: frozenset) -> np.ndarray:
        """[[M_sigma, c_sigma], [0, 0]]; treat as read-only."""
        return self.mode(sigma)[0]

    def affine_in(self, sigma, y) -> bool:
        """Every curved row clamped in sigma with mu_i exactly 0, so the bilinear
        terms mu_i P_i x vanish; a clamped mu_i in (0, MU_ZERO_TOL] keeps its."""
        return self.curved <= sigma and not any(y[i] for i in self.curved_mu)

    def constraint_values(self, X: np.ndarray) -> np.ndarray:
        """g at each row of X."""
        g = X @ self.G.T + self.d
        if self.P is not None:
            g += 0.5 * np.einsum("tj,ijk,tk->ti", X, self.P, X)
        return g

    def stage(self, sigma, clamped):
        """One matvec plus one bilinear product per stage."""
        Z, B = self.mode(sigma)
        N, n = self.size, self.n
        ZL, zc = Z[:N, :N].copy(), Z[:N, N].copy()
        if B is None:
            return lambda t, y: ZL @ y + zc
        BL = B.reshape(N * N, n)
        return lambda t, y: ZL @ y + zc + (BL @ y[:n]).reshape(N, N) @ y

    def derivatives(self, Y: np.ndarray, sigmas, times=None) -> np.ndarray:
        """Field at each row of Y under that row's mode, one product per run of equal modes."""
        D = np.empty_like(Y)
        size = self.size
        start = 0
        for k in range(1, len(sigmas) + 1):
            if k == len(sigmas) or sigmas[k] != sigmas[start]:
                Z, B = self.mode(sigmas[start])
                Yk = Y[start:k]
                D[start:k] = Yk @ Z[:size, :size].T + Z[:size, size]
                if B is not None:
                    D[start:k] += np.einsum("abk,tk,tb->ta", B, Yk[:, : self.n], Yk)
                start = k
        return D


class AffineField(QuadraticField):
    """The B-free case, a QP: affine in every mode, so the engine propagates
    each mode exactly by exponentials of its augmented matrix."""


def compiled_field(sys: ComposedSystem, v=None) -> QuadraticField | None:
    """The field compiled per mode: needs a Quadratic objective, `AffineScalar`
    or `QuadraticScalar` inequalities and `v` None or a constant vector. An
    `AffineField` if every inequality is affine, else a `QuadraticField`; None
    otherwise, and the run uses a `GenericField`."""
    stack = sys.proj._stack
    if not isinstance(sys.problem.objective, Quadratic) or stack is None:
        return None
    return (AffineField if stack[0] is None else QuadraticField)(sys, v)


def affine_field(sys: ComposedSystem, v=None) -> AffineField | None:
    """`compiled_field` when every inequality is affine, else None."""
    stack = sys.proj._stack
    return compiled_field(sys, v) if stack is not None and stack[0] is None else None
