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

from .problem import _stack_affine

__all__ = [
    "MU_ZERO_TOL",
    "ProjectionSystem",
    "SwitchEvent",
    "StepTooLargeError",
    "positive_projection",
    "compute_sigma",
    "mode_multiplier_rates",
    "switched_storage",
    "output_port",
    "output_port_rate",
    "classify_switch",
]

# Membership threshold on mu after event-exact clamping; guards float dust only.
MU_ZERO_TOL = 1e-12

ACTIVATION = "activation"
DEACTIVATION = "deactivation"


class StepTooLargeError(RuntimeError):
    """A single step produced a switch pattern that must be refined."""


@dataclass(frozen=True)
class ProjectionSystem:
    """p inequality oracles over R^n plus positive multiplier time constants."""

    inequalities: tuple
    tau_mu: np.ndarray
    n: int
    _affine: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        cons = tuple(self.inequalities)
        object.__setattr__(self, "inequalities", cons)
        tau = np.atleast_1d(np.asarray(self.tau_mu, dtype=float))
        if tau.size == 1 and len(cons) > 1:
            tau = np.full(len(cons), float(tau[0]))
        if tau.size != len(cons):
            raise ValueError(f"tau_mu has {tau.size} entries, expected {len(cons)}")
        if len(cons) and tau.min() <= 0:
            raise ValueError("tau_mu must be positive componentwise")
        object.__setattr__(self, "tau_mu", tau)
        object.__setattr__(self, "_affine", _stack_affine(cons))

    @property
    def p(self) -> int:
        return len(self.inequalities)

    def values(self, u: np.ndarray) -> np.ndarray:
        if self._affine is not None:
            G, d = self._affine
            return G @ u + d
        return np.array([g.value(u) for g in self.inequalities])

    def grads(self, u: np.ndarray) -> np.ndarray:
        if self._affine is not None:
            return self._affine[0]
        if not self.inequalities:
            return np.zeros((0, self.n))
        return np.vstack([g.grad(u) for g in self.inequalities])

    def hessians(self, u: np.ndarray) -> np.ndarray:
        if not self.inequalities:
            return np.zeros((0, self.n, self.n))
        return np.stack([g.hess(u) for g in self.inequalities])


def positive_projection(g_val: float, mu: float) -> float:
    """Rate of one multiplier: g_val when (mu > 0 or g_val > 0), else 0."""
    if mu < 0:
        raise ValueError(f"multiplier must be nonnegative, got {mu}")
    if mu > 0 or g_val > 0:
        return float(g_val)
    return 0.0


def compute_sigma(mu, g_vals, mu_tol: float = MU_ZERO_TOL) -> frozenset:
    """Indices with mu_i at zero and g_i <= 0, where the projection clamps."""
    mu = np.asarray(mu, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    return frozenset(int(i) for i in np.flatnonzero((mu <= mu_tol) & (g_vals <= 0.0)))


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


def output_port(sys: ProjectionSystem, u_tilde, mu) -> np.ndarray:
    """y_tilde = sum over all i of mu_i grad g_i(u)."""
    mu = np.asarray(mu, dtype=float)
    if sys.p == 0 or not mu.any():
        return np.zeros(sys.n)
    return mu @ sys.grads(np.asarray(u_tilde, dtype=float))


def output_port_rate(sys: ProjectionSystem, u_tilde, mu, mu_dot, u_tilde_dot) -> np.ndarray:
    """d/dt of the output port: sum mudot_i grad g_i + sum mu_i hess g_i udot."""
    u = np.asarray(u_tilde, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_dot = np.asarray(mu_dot, dtype=float)
    if sys.p == 0:
        return np.zeros(sys.n)
    rate = mu_dot @ sys.grads(u)
    if mu.any():
        if sys._affine is None:
            rate = rate + np.einsum("i,ijk,k->j", mu, sys.hessians(u), np.asarray(u_tilde_dot))
        # affine constraints contribute no curvature term
    return rate


@dataclass(frozen=True)
class SwitchEvent:
    """One projection switch: which index, which direction, and the storage jump."""

    time: float
    index: int
    kind: str
    storage_before: float
    storage_after: float


def classify_switch(
    sys: ProjectionSystem, prev: frozenset, new: frozenset, mu, g_vals, t: float,
    *, consistency_tol: float = 1e-8,
) -> list[SwitchEvent]:
    """Turn a sigma transition into ordered activation/deactivation events.

    Indices entering sigma are activations, indices leaving are deactivations;
    coincident changes are processed in index order and the storage values are
    re-evaluated under each intermediate mode. A transition whose state is
    inconsistent with either direction (an entering index with g_i clearly
    positive, or a leaving index with mu_i away from zero) means the caller's
    step bridged more than one crossing and must be refined.
    """
    if prev == new:
        return []
    mu = np.asarray(mu, dtype=float)
    g_vals = np.asarray(g_vals, dtype=float)
    entering = new - prev
    leaving = prev - new
    for i in entering:
        if mu[i] > consistency_tol or g_vals[i] > consistency_tol:
            raise StepTooLargeError(
                f"index {i} entered sigma with mu={mu[i]!r}, g={g_vals[i]!r} at t={t!r}"
            )
    for i in leaving:
        if mu[i] > consistency_tol:
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
