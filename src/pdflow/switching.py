"""Multiplier dynamics for inequality constraints as a state-dependent switched system.

Each multiplier obeys tau_mu_i mudot_i = (g_i(u))+_{mu_i} where the positive
projection passes g_i through while mu_i > 0 (or g_i > 0) and clamps the rate
to zero otherwise. The set of clamped indices

    sigma = { i : mu_i = 0 and g_i(u) <= 0 }

is the switching signal. One storage function is defined per mode,

    S_sigma = 0.5 * sum_{i not in sigma} tau_mu_i * mudot_i^2,

and switch events are classified by how the storage behaves across them:
an activation (mu_i reaches 0 while g_i < 0) drops the storage by exactly
0.5 g_i^2 / tau_mu_i, a deactivation (g_i crosses 0 upward while mu_i = 0)
leaves it continuous. The ledger of such events is what the certificate
checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import _grads, _stack, _values, sized

__all__ = [
    "MU_ZERO_TOL",
    "ProjectionSystem",
    "SwitchEvent",
    "StepTooLargeError",
    "positive_projection",
    "compute_sigma",
    "mode_multiplier_rates",
    "switched_storage",
    "output_port_rate",
    "classify_switch",
]

# Membership threshold on mu after event-exact clamping; guards float dust only.
MU_ZERO_TOL = 1e-12
# How far from zero an index's mu or g may sit when it enters or leaves sigma.
CONSISTENCY_TOL = 1e-8

ACTIVATION = "activation"
DEACTIVATION = "deactivation"


class StepTooLargeError(RuntimeError):
    """A single step produced a switch pattern that must be refined."""


@dataclass(frozen=True)
class ProjectionSystem:
    """p inequality oracles over R^n plus positive multiplier time constants
    (`tau_mu`, expanded to p entries by `problem.sized`). Affine and quadratic
    inequalities are held as one stack (`problem._stack`), so each oracle is
    one array operation; others are called one constraint at a time."""

    inequalities: tuple
    tau_mu: np.ndarray
    n: int
    _stack: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        cons = tuple(self.inequalities)
        object.__setattr__(self, "inequalities", cons)
        tau = sized(self.tau_mu, len(cons), "tau_mu")
        if np.any(tau <= 0):
            raise ValueError("tau_mu must be positive componentwise")
        object.__setattr__(self, "tau_mu", tau)
        object.__setattr__(self, "_stack", _stack(cons, self.n))

    @property
    def p(self) -> int:
        return len(self.inequalities)

    def values(self, u: np.ndarray) -> np.ndarray:
        return _values(self.inequalities, self._stack, u)

    def grads(self, u: np.ndarray) -> np.ndarray:
        return _grads(self.inequalities, self._stack, u)

    def hessians(self, u: np.ndarray) -> np.ndarray:
        if self._stack is None:
            return np.stack([g.hess(u) for g in self.inequalities])
        P = self._stack[0]
        return np.zeros((self.p, self.n, self.n)) if P is None else P

    def sampled(self, X: np.ndarray, order: int = 2):
        """g and its derivatives up to `order` at each row of X: values, gradients
        and Hessians shaped (T, p), (T, p, n) and (T, p, n, n); one array
        operation each for a stack, else a call per row of each oracle asked for."""
        T, p, n = len(X), self.p, self.n
        if self._stack is None:
            oracles = (self.values, self.grads, self.hessians)[: order + 1]
            return tuple(np.array([f(x) for x in X]).reshape(T, p, *[n] * k)
                         for k, f in enumerate(oracles))
        P, (_, G, d) = self.hessians(X), self._stack  # a stack's Hessians are constant
        PX = np.einsum("ijk,tk->tij", P, X)
        g = X @ G.T + d + 0.5 * np.einsum("tij,tj->ti", PX, X)
        return (g, G + PX, np.broadcast_to(P, (T, p, n, n)))[: order + 1]


def positive_projection(g_val: float, mu: float) -> float:
    """Rate of one multiplier: g_val when (mu > 0 or g_val > 0), else 0."""
    if mu < 0:
        raise ValueError(f"multiplier must be nonnegative, got {mu}")
    if mu > 0 or g_val > 0:
        return float(g_val)
    return 0.0


def compute_sigma(mu, g_vals) -> frozenset:
    """Indices with mu_i <= MU_ZERO_TOL and g_i <= 0, where the projection clamps."""
    mu = np.asarray(mu, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    return frozenset(int(i) for i in np.flatnonzero((mu <= MU_ZERO_TOL) & (g_vals <= 0.0)))


def mode_multiplier_rates(sys: ProjectionSystem, g_vals: np.ndarray, sigma) -> np.ndarray:
    """mudot under a frozen mode: g_i / tau_mu_i off sigma, zero on it."""
    rates = np.asarray(g_vals, dtype=float) / sys.tau_mu
    if sigma:
        rates = rates.copy()
        rates[list(sigma)] = 0.0
    return rates


def switched_storage(sys: ProjectionSystem, sigma, mu_dot) -> float:
    """S_sigma = 0.5 sum over inactive indices of tau_mu_i mudot_i^2."""
    mu_dot = np.asarray(mu_dot, dtype=float)
    keep = np.ones(sys.p, dtype=bool)
    if sigma:
        keep[list(sigma)] = False
    return 0.5 * float(np.sum(sys.tau_mu[keep] * mu_dot[keep] ** 2))


def output_port_rate(sys: ProjectionSystem, u_tilde, mu, mu_dot, u_tilde_dot) -> np.ndarray:
    """d/dt of the output port: sum mudot_i grad g_i + sum mu_i hess g_i udot."""
    u = np.asarray(u_tilde, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_dot = np.asarray(mu_dot, dtype=float)
    if sys.p == 0:
        return np.zeros(sys.n)
    return mu_dot @ sys.grads(u) + np.einsum("i,ijk,k->j", mu, sys.hessians(u), u_tilde_dot)


@dataclass(frozen=True)
class SwitchEvent:
    """One projection switch: which index, which direction, and the storage jump."""

    time: float
    index: int
    kind: str
    storage_before: float
    storage_after: float


def classify_switch(
    sys: ProjectionSystem, prev: frozenset, new: frozenset, mu, g_vals, t: float
) -> list[SwitchEvent]:
    """Turn a sigma transition into ordered activation/deactivation events.

    Indices entering sigma are activations, indices leaving are deactivations;
    coincident changes are processed in index order and the storage values are
    re-evaluated under each intermediate mode. A transition whose state is
    inconsistent with either direction (an entering index with mu_i or g_i
    above CONSISTENCY_TOL, or a leaving index with mu_i above it) means the
    caller's step bridged more than one crossing and must be refined.
    """
    if prev == new:
        return []
    mu = np.asarray(mu, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    entering = new - prev
    leaving = prev - new
    for i in entering:
        if mu[i] > CONSISTENCY_TOL or g_vals[i] > CONSISTENCY_TOL:
            raise StepTooLargeError(
                f"index {i} entered sigma with mu={mu[i]!r}, g={g_vals[i]!r} at t={t!r}"
            )
    for i in leaving:
        if mu[i] > CONSISTENCY_TOL:
            raise StepTooLargeError(
                f"index {i} left sigma with mu={mu[i]!r} at t={t!r}"
            )
    events = []
    sigma = prev
    for i in sorted(entering | leaving):
        after = (sigma | {i}) if i in entering else (sigma - {i})
        s_before = switched_storage(sys, sigma, mode_multiplier_rates(sys, g_vals, sigma))
        s_after = switched_storage(sys, after, mode_multiplier_rates(sys, g_vals, after))
        events.append(
            SwitchEvent(
                time=float(t),
                index=int(i),
                kind=ACTIVATION if i in entering else DEACTIVATION,
                storage_before=s_before,
                storage_after=s_after,
            )
        )
        sigma = after
    return events
