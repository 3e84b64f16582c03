"""Adaptive hybrid time-stepping with event-exact projection switching.

Smooth segments are advanced by an explicit Dormand-Prince 5(4) pair over the
frozen vector field of the current mode. Two event families are monitored:

  activation:   mu_i crossing zero from above while i is outside sigma
                (only possible with g_i < 0); mu_i is clamped to exactly 0
  deactivation: g_i crossing zero from below while i is inside sigma

When an accepted step bridges a crossing, the crossing is isolated by
bisection on the step length (each candidate state comes from a single
exact-length Runge-Kutta step from the segment start, so the located state is
itself an integrator state, not an interpolant). The step is applied at the
bracket endpoint just past the crossing, sigma is recomputed from scratch,
and the events are classified and appended to the ledger. Samples are
recorded on a fixed stride, at the horizon, and on both sides of every event;
the post-switch sample time is nudged by one ulp so recorded times stay
strictly increasing.

Runs are deterministic: identical systems, initial states, and options
produce byte-identical serialized trajectories.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .interconnect import (
    ComposedSystem,
    FullState,
    affine_field,
    composed_vector_field,
    port_power,
)
from .brayton_moser import krasovskii_storage
from .switching import (
    ProjectionSystem,
    SwitchEvent,
    classify_switch,
    compute_sigma,
    mode_multiplier_rates,
    output_port_rate,
    switched_storage,
)

__all__ = [
    "IntegratorOptions",
    "STAT_KEYS",
    "Trajectory",
    "EventIsolationError",
    "DivergenceError",
    "simulate",
    "simulate_projection",
    "step",
    "event_functions",
    "concat_trajectories",
    "write_trajectory_csv",
    "write_ledger_csv",
    "read_trajectory_csv",
    "read_ledger_csv",
]


class EventIsolationError(RuntimeError):
    """Bisection could not isolate a switching time to the event tolerance."""


class DivergenceError(RuntimeError):
    """State became non-finite; carries the last valid (time, state) pair."""

    def __init__(self, message: str, time: float, state: np.ndarray):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass(frozen=True)
class IntegratorOptions:
    """Step-size bounds, tolerances, horizon, and sampling stride (seconds)."""

    horizon: float
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.1
    event_tol: float = 1e-10
    record_stride: float = 0.1
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.event_tol <= 0:
            raise ValueError("event_tol must be positive")
        if self.record_stride <= 0:
            raise ValueError("record_stride must be positive")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")


@dataclass
class Trajectory:
    """Sampled run: states, derivatives, storages, port powers, switch ledger.

    Arrays are immutable by convention once returned. `event_pre` marks
    left-limit samples recorded just before a switch; their sigma is the
    pre-switch mode by design. `stats` holds the engine's counters (keys
    `STAT_KEYS`); a trajectory rebuilt from artifacts carries none.
    """

    times: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    g: np.ndarray
    sigma: list
    x_dot: np.ndarray
    lam_dot: np.ndarray
    mu_dot: np.ndarray
    p_tilde: np.ndarray
    s_sigma: np.ndarray
    s_tilde: np.ndarray
    power_eq: np.ndarray
    power_ineq: np.ndarray
    power_ext: np.ndarray
    ledger: list
    opts: IntegratorOptions
    kind: str
    tau_mu: np.ndarray
    event_pre: np.ndarray
    sys: object | None = field(default=None, repr=False)
    constant_input: bool = True
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.times.size

    def sigma_bitmask(self) -> np.ndarray:
        return np.array([sum(1 << i for i in s) for s in self.sigma], dtype=np.int64)

    @property
    def final_state(self) -> FullState:
        return FullState(self.x[-1], self.lam[-1], self.mu[-1], self.sigma[-1])


# Dormand-Prince 5(4) coefficients.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


def _propagate(f, t, y, h, k1=None):
    """One 6-stage propagation; returns the 5th-order endpoint and stages."""
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + 0.2 * h, y + h * (_A21 * k1))
    k3 = f(t + 0.3 * h, y + h * (_A31 * k1 + _A32 * k2))
    k4 = f(t + 0.8 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = f(t + (8 / 9) * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = f(t + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y5 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    return y5, (k1, k3, k4, k5, k6)


def _step_with_error(f, t, y, h, k1=None):
    y5, (k1, k3, k4, k5, k6) = _propagate(f, t, y, h, k1)
    k7 = f(t + h, y5)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    return y5, err


STAT_KEYS = (
    "step_attempts",
    "rejected_steps",
    "rhs_evals",
    "cached_steps",
    "forced_accepts",
    "bisection_propagations",
)


class _Engine:
    """Shared hybrid stepping loop; physics enters through rhs/g_of closures.

    With an `affine` field (see `interconnect.AffineField`) every stage
    evaluates y' = M_sigma y + c_sigma, and a step of length dt_max is one
    cached pair of affine maps per mode: the DP5(4) tableau applied to the
    identity gives the 5th-order endpoint map and the embedded error map of
    the augmented linear system, so such a step costs two matvecs.
    """

    def __init__(self, rhs, g_of, proj: ProjectionSystem, imu: int, y0, sigma0, opts,
                 affine=None):
        self.rhs = rhs
        self.g_of = g_of
        self.proj = proj
        self.imu = imu
        self.p = proj.p
        self.y = np.asarray(y0, dtype=float).copy()
        self.sigma = sigma0
        self.opts = opts
        self.affine = affine
        self.t = 0.0
        self.samples: list[tuple[float, np.ndarray, frozenset, bool]] = []
        self.ledger: list[SwitchEvent] = []
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self._modes: dict = {}

    # -- recording -------------------------------------------------------

    def _record(self, t, y, sigma, pre=False):
        if self.samples:
            last_t = self.samples[-1][0]
            if t <= last_t:
                if sigma == self.samples[-1][2] and not pre:
                    return
                t = np.nextafter(last_t, np.inf)
        self.samples.append((float(t), y.copy(), sigma, pre))

    # -- mode plumbing ----------------------------------------------------

    def _mode(self, sigma):
        """(stage field, dt_max step maps or None), built on the mode's first visit."""
        mode = self._modes.get(sigma)
        if mode is not None:
            return mode
        if self.affine is None:
            mask = np.zeros(self.p, dtype=bool)
            if sigma:
                mask[list(sigma)] = True
            rhs = self.rhs
            mode = (lambda t, y: rhs(t, y, mask), None)
        else:
            Z = self.affine.augmented(sigma)
            N = Z.shape[0] - 1
            M, c = Z[:N, :N].copy(), Z[:N, N].copy()
            S, E = _step_with_error(lambda t, Y: Z @ Y, 0.0, np.eye(N + 1), self.opts.dt_max)
            maps = (S[:N, :N].copy(), S[:N, N].copy(), E[:N, :N].copy(), E[:N, N].copy())
            mode = (lambda t, y: M @ y + c, maps)
        self._modes[sigma] = mode
        return mode

    # -- error norm -------------------------------------------------------

    def _error_norm(self, err, y0, y1) -> float:
        if err.size == 0:
            return 0.0
        r = err / (self.opts.atol + self.opts.rtol * np.maximum(np.abs(y0), np.abs(y1)))
        val = math.sqrt(float(r @ r) / r.size)
        return val if math.isfinite(val) else math.inf

    # -- event isolation ---------------------------------------------------

    def _bisect(self, f, t, y, h, k1, extract, phi_end) -> float:
        """Application point just past the earliest sign change of one event.

        `extract` maps a candidate end state to the event function value,
        normalized so the pre side is nonnegative. Returns the step length at
        which |phi| <= event_tol on the post side.
        """
        tol = self.opts.event_tol
        if abs(phi_end) <= tol:
            return h
        lo, hi, phi_hi = 0.0, h, phi_end
        for _ in range(256):
            mid = 0.5 * (lo + hi)
            y_mid, _ = _propagate(f, t, y, mid, k1)
            self.stats["bisection_propagations"] += 1
            self.stats["rhs_evals"] += 5
            phi_mid = extract(t + mid, y_mid)
            if phi_mid > 0.0:
                lo = mid
            else:
                hi, phi_hi = mid, phi_mid
            if abs(phi_hi) <= tol:
                return hi
            if hi - lo <= max(self.opts.dt_min, 4.0 * np.finfo(float).eps * max(h, 1.0)):
                if abs(phi_hi) <= tol:
                    return hi
                raise EventIsolationError(
                    f"cannot isolate event near t={t + hi!r} (residual {phi_hi!r})"
                )
        raise EventIsolationError(f"event isolation did not converge near t={t!r}")

    def _locate_earliest(self, f, t, y, h, k1, act, deact, mu_end, g_end) -> float:
        candidates = []
        for i in act:
            idx = self.imu + i
            candidates.append(
                self._bisect(f, t, y, h, k1, lambda tt, yy, idx=idx: yy[idx], mu_end[i])
            )
        for i in deact:
            candidates.append(
                self._bisect(
                    f, t, y, h, k1,
                    lambda tt, yy, i=i: -self.g_of(tt, yy)[i],
                    -g_end[i],
                )
            )
        return min(candidates)

    def _apply_events(self, f, t, y, s_apply, k1):
        """Advance to the application point, clamp, recompute sigma, classify."""
        y_ev, _ = _propagate(f, t, y, s_apply, k1)
        self.stats["rhs_evals"] += 5
        t_ev = t + s_apply
        mu = y_ev[self.imu :]
        np.clip(mu, 0.0, None, out=mu)
        g_ev = self.g_of(t_ev, y_ev)
        new_sigma = compute_sigma(mu, g_ev)
        self._record(t_ev, y_ev, self.sigma, pre=(new_sigma != self.sigma))
        if new_sigma != self.sigma:
            events = classify_switch(self.proj, self.sigma, new_sigma, mu, g_ev, t_ev)
            self.ledger.extend(events)
            self._record(np.nextafter(t_ev, np.inf), y_ev, new_sigma)
            self.sigma = new_sigma
        self.t, self.y = t_ev, y_ev

    # -- main loop ----------------------------------------------------------

    def run(self):
        opts = self.opts
        stats = self.stats
        horizon = opts.horizon
        self._record(self.t, self.y, self.sigma)
        if horizon <= 0:
            return
        stride = opts.record_stride
        next_rec = min(stride, horizon)
        tiny = 1e-13 * max(1.0, horizon)
        h = min(opts.dt_init, opts.dt_max, horizon)
        with np.errstate(over="ignore", invalid="ignore"):
            while self.t < horizon - tiny:
                cap = min(h, opts.dt_max, horizon - self.t)
                if next_rec > self.t + tiny:
                    cap = min(cap, next_rec - self.t)
                h_try = cap
                f, maps = self._mode(self.sigma)
                k1 = None
                while True:
                    stats["step_attempts"] += 1
                    if maps is not None and h_try == opts.dt_max:
                        P, q, E, e = maps
                        y_new, err = P @ self.y + q, E @ self.y + e
                        stats["cached_steps"] += 1
                    else:
                        if k1 is None:
                            k1 = f(self.t, self.y)
                            stats["rhs_evals"] += 1
                        y_new, err = _step_with_error(f, self.t, self.y, h_try, k1)
                        stats["rhs_evals"] += 6
                    err_norm = self._error_norm(err, self.y, y_new)
                    if err_norm <= 1.0:
                        break
                    if h_try <= opts.dt_min * (1 + 1e-12):
                        stats["forced_accepts"] += 1
                        break
                    stats["rejected_steps"] += 1
                    h_try = max(
                        opts.dt_min, h_try * max(0.2, 0.9 * err_norm ** -0.2)
                    )
                if not np.isfinite(y_new).all():
                    raise DivergenceError(
                        f"non-finite state at t={self.t!r}", self.t, self.y.copy()
                    )
                # event detection on the accepted span
                if self.p:
                    mu_end = y_new[self.imu :]
                    g_end = self.g_of(self.t + h_try, y_new)
                    sigma = self.sigma
                    act = [i for i in range(self.p) if i not in sigma and mu_end[i] < 0.0]
                    deact = [i for i in range(self.p) if i in sigma and g_end[i] > 0.0]
                    if act or deact:
                        if k1 is None:
                            k1 = f(self.t, self.y)
                            stats["rhs_evals"] += 1
                        s_apply = self._locate_earliest(
                            f, self.t, self.y, h_try, k1, act, deact, mu_end, g_end
                        )
                        self._apply_events(f, self.t, self.y, s_apply, k1)
                        continue
                self.t = self.t + h_try
                self.y = y_new
                if next_rec <= self.t + tiny:
                    self._record(self.t, self.y, self.sigma)
                    while next_rec <= self.t + tiny:
                        next_rec += stride
                    next_rec = min(next_rec, horizon)
                if err_norm > 0:
                    h = h_try * min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
                else:
                    h = h_try * 5.0
                h = min(h, opts.dt_max)
        self._record(self.t, self.y, self.sigma)


def _resolve_input(v, size: int, name: str):
    """Normalize an input channel to (callable, constant_flag)."""
    if v is None:
        return None, True
    if callable(v):
        return v, False
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.size != size:
        raise ValueError(f"{name} has size {arr.size}, expected {size}")
    return (lambda t, arr=arr: arr), True


def simulate(
    sys: ComposedSystem,
    initial: FullState,
    opts: IntegratorOptions,
    v=None,
    v_dot=None,
) -> Trajectory:
    """Integrate the composed dynamics to the horizon.

    `v` may be None, a constant vector, or a callable t -> vector; a callable
    must be piecewise-C1 and accompanied by its derivative `v_dot` so the port
    powers are well defined between breakpoints.
    """
    n, m, p = sys.n, sys.m, sys.p
    if initial.x.size != n or initial.lam.size != m or initial.mu.size != p:
        raise ValueError("initial state dimensions disagree with the system")
    v_fn, v_const = _resolve_input(v, n, "v")
    if v_fn is not None and not v_const and v_dot is None:
        raise ValueError("time-varying v requires v_dot")
    vd_fn, _ = _resolve_input(v_dot, n, "v_dot")

    obj = sys.problem.objective
    A = sys.problem.equality.A
    be = sys.problem.equality.b
    proj = sys.proj
    tau_x_inv = sys.bm._tau_x_inv
    tau_lam_inv = sys.bm._tau_lam_inv
    tau_mu = proj.tau_mu
    imu = n + m

    def rhs(t, y, mask):
        x = y[:n]
        grad = obj.grad(x)
        if m:
            grad = grad + A.T @ y[n:imu]
        mu = y[imu:]
        if p and mu.any():
            grad = grad + mu @ proj.grads(x)
        if v_fn is not None:
            grad = grad + v_fn(t)
        out = np.empty(y.size)
        out[:n] = -(tau_x_inv @ grad)
        if m:
            out[n:imu] = tau_lam_inv @ (A @ x + be)
        if p:
            g = proj.values(x)
            md = g / tau_mu
            md[mask] = 0.0
            out[imu:] = md
        return out

    def g_of(t, y):
        return proj.values(y[:n])

    g0 = proj.values(initial.x)
    sigma0 = compute_sigma(initial.mu, g0)
    y0 = np.concatenate([initial.x, initial.lam, initial.mu])
    # the problem's types choose the path: compiled per mode, or rhs per stage
    affine = affine_field(sys, v_fn(0.0) if v_fn is not None else None) if v_const else None
    engine = _Engine(rhs, g_of, proj, imu, y0, sigma0, opts, affine)
    engine.run()

    rows = engine.samples
    T = len(rows)
    times = np.array([r[0] for r in rows])
    Y = np.array([r[1] for r in rows]).reshape(T, imu + p)
    sigmas = [r[2] for r in rows]
    pre_flags = np.array([r[3] for r in rows], dtype=bool)
    X = Y[:, :n]
    VD = np.array([vd_fn(t) for t in times]).reshape(T, n) if vd_fn is not None else None
    if affine is not None:
        D = affine.derivatives(Y, sigmas)
        cols = _affine_columns(sys, affine, X, D, VD)
    else:
        cols = _generic_columns(sys, Y, times, sigmas, v_fn, VD)
    return Trajectory(
        times=times,
        x=X,
        lam=Y[:, n:imu],
        mu=Y[:, imu:],
        sigma=sigmas,
        ledger=engine.ledger,
        opts=opts,
        kind="composed",
        tau_mu=tau_mu.copy(),
        event_pre=pre_flags,
        sys=sys,
        constant_input=v_const,
        stats=engine.stats,
        **cols,
    )


def _affine_columns(sys: ComposedSystem, affine, X, D, VD) -> dict:
    """Derived columns of an affine run from its field rows D, vectorized over samples."""
    n, imu = sys.n, sys.n + sys.m
    x_dot, lam_dot, mu_dot = D[:, :n], D[:, n:imu], D[:, imu:]
    p_tilde = 0.5 * np.einsum("ki,ij,kj->k", x_dot, sys.bm.tau_x, x_dot)
    if sys.m:
        p_tilde += 0.5 * np.einsum("ki,ij,kj->k", lam_dot, sys.bm.tau_lam, lam_dot)
    # mu_dot rows are already zero on each sample's clamped indices
    s_sigma = 0.5 * (mu_dot**2) @ sys.proj.tau_mu
    y_rate = mu_dot @ affine.G
    power_ineq = np.einsum("ki,ki->k", x_dot, y_rate)
    if VD is None:
        power_ext = np.zeros(len(X))
        power_eq = -power_ineq
    else:
        power_ext = -np.einsum("ki,ki->k", VD, x_dot)
        power_eq = -np.einsum("ki,ki->k", y_rate + VD, x_dot)
    return {
        "g": affine.constraint_values(X),
        "x_dot": x_dot, "lam_dot": lam_dot, "mu_dot": mu_dot,
        "p_tilde": p_tilde, "s_sigma": s_sigma, "s_tilde": p_tilde + s_sigma,
        "power_eq": power_eq, "power_ineq": power_ineq, "power_ext": power_ext,
    }


def _generic_columns(sys: ComposedSystem, Y, times, sigmas, v_fn, VD) -> dict:
    """Derived columns sample by sample through the oracles (any problem type)."""
    n, m, p = sys.n, sys.m, sys.p
    imu = n + m
    T = len(times)
    cols = {"g": np.empty((T, p)), "x_dot": np.empty((T, n)),
            "lam_dot": np.empty((T, m)), "mu_dot": np.empty((T, p))}
    for name in ("p_tilde", "s_sigma", "s_tilde", "power_eq", "power_ineq", "power_ext"):
        cols[name] = np.empty(T)
    for k in range(T):
        y, sigma = Y[k], sigmas[k]
        st = FullState(y[:n], y[n:imu], y[imu:], sigma)
        vv = v_fn(times[k]) if v_fn is not None else None
        derivs = composed_vector_field(sys, st, vv)
        power = port_power(sys, st, derivs, VD[k] if VD is not None else None)
        pt = krasovskii_storage(sys.bm, derivs[0], derivs[1])
        ss = switched_storage(sys.proj, sigma, derivs[2])
        cols["g"][k] = sys.proj.values(st.x)
        cols["x_dot"][k], cols["lam_dot"][k], cols["mu_dot"][k] = derivs
        cols["p_tilde"][k] = pt
        cols["s_sigma"][k] = ss
        cols["s_tilde"][k] = pt + ss
        cols["power_eq"][k] = power.equality
        cols["power_ineq"][k] = power.inequality
        cols["power_ext"][k] = power.external
    return cols


def simulate_projection(
    proj: ProjectionSystem,
    u,
    mu0,
    opts: IntegratorOptions,
    u_dot=None,
) -> Trajectory:
    """Integrate the multiplier dynamics under an exogenous input schedule.

    `u` is a constant vector or a callable t -> vector (with `u_dot` supplied
    in the time-varying case). The trajectory's x columns carry the input
    samples; the equality-side storages and powers are identically zero.
    """
    u_fn, u_const = _resolve_input(u, proj.n, "u")
    if u_fn is None:
        raise ValueError("u is required")
    if not u_const and u_dot is None:
        raise ValueError("time-varying u requires u_dot")
    ud_fn, _ = _resolve_input(u_dot, proj.n, "u_dot")
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    if mu0.size != proj.p:
        raise ValueError(f"mu0 has size {mu0.size}, expected {proj.p}")
    if proj.p and mu0.min() < 0:
        raise ValueError("mu0 must be nonnegative")
    tau_mu = proj.tau_mu

    def rhs(t, y, mask):
        g = proj.values(u_fn(t))
        md = g / tau_mu
        md[mask] = 0.0
        return md

    def g_of(t, y):
        return proj.values(u_fn(t))

    sigma0 = compute_sigma(mu0, proj.values(u_fn(0.0)))
    engine = _Engine(rhs, g_of, proj, 0, mu0, sigma0, opts)
    engine.run()

    rows = engine.samples
    T = len(rows)
    n, p = proj.n, proj.p
    times = np.empty(T)
    xs = np.empty((T, n))
    mus = np.empty((T, p))
    gs = np.empty((T, p))
    x_dots = np.empty((T, n))
    mu_dots = np.empty((T, p))
    s_sig = np.empty(T)
    pow_ineq = np.empty(T)
    sigmas = []
    pre_flags = np.zeros(T, dtype=bool)
    for k, (t, y, sigma, pre) in enumerate(rows):
        uu = u_fn(t)
        ud = ud_fn(t) if ud_fn is not None else np.zeros(n)
        g = proj.values(uu)
        md = mode_multiplier_rates(proj, g, sigma)
        y_rate = output_port_rate(proj, uu, y, md, ud)
        times[k] = t
        xs[k] = uu
        mus[k] = y
        gs[k] = g
        x_dots[k] = ud
        mu_dots[k] = md
        s_sig[k] = switched_storage(proj, sigma, md)
        pow_ineq[k] = float(ud @ y_rate)
        sigmas.append(sigma)
        pre_flags[k] = pre
    zeros = np.zeros(T)
    return Trajectory(
        times=times,
        x=xs,
        lam=np.zeros((T, 0)),
        mu=mus,
        g=gs,
        sigma=sigmas,
        x_dot=x_dots,
        lam_dot=np.zeros((T, 0)),
        mu_dot=mu_dots,
        p_tilde=zeros.copy(),
        s_sigma=s_sig,
        s_tilde=s_sig.copy(),
        power_eq=zeros.copy(),
        power_ineq=pow_ineq,
        power_ext=zeros.copy(),
        ledger=engine.ledger,
        opts=opts,
        kind="projection",
        tau_mu=tau_mu.copy(),
        event_pre=pre_flags,
        sys=proj,
        constant_input=u_const,
        stats=engine.stats,
    )


def step(
    sys: ComposedSystem,
    state: FullState,
    dt: float,
    v=None,
    event_tol: float = 1e-10,
    dt_min: float = 1e-12,
) -> tuple[FullState, list]:
    """Advance exactly dt with a fixed-length step per smooth segment.

    Any crossing inside the span is isolated, applied (mu clamped to exactly
    zero on activation, sigma recomputed), and the remainder re-stepped.
    Returns the end state and the switch events encountered, in time order.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    opts = IntegratorOptions(
        horizon=dt,
        dt_init=dt,
        dt_min=min(dt_min, dt),
        dt_max=dt,
        event_tol=event_tol,
        record_stride=dt,
        rtol=1.0,
        atol=1e30,  # single fixed step; no accuracy rejection
    )
    traj = simulate(sys, state, opts, v=v)
    return traj.final_state, list(traj.ledger)


def concat_trajectories(a: Trajectory, b: Trajectory) -> Trajectory:
    """Append run b (started from a's terminal state) onto a, shifting times.

    b's initial sample duplicates a's terminal one and is dropped.
    """
    from dataclasses import replace

    offset = float(a.times[-1])

    def cat(x, y):
        return np.concatenate([x, y[1:]], axis=0)

    return Trajectory(
        times=cat(a.times, b.times + offset),
        x=cat(a.x, b.x),
        lam=cat(a.lam, b.lam),
        mu=cat(a.mu, b.mu),
        g=cat(a.g, b.g),
        sigma=a.sigma + b.sigma[1:],
        x_dot=cat(a.x_dot, b.x_dot),
        lam_dot=cat(a.lam_dot, b.lam_dot),
        mu_dot=cat(a.mu_dot, b.mu_dot),
        p_tilde=cat(a.p_tilde, b.p_tilde),
        s_sigma=cat(a.s_sigma, b.s_sigma),
        s_tilde=cat(a.s_tilde, b.s_tilde),
        power_eq=cat(a.power_eq, b.power_eq),
        power_ineq=cat(a.power_ineq, b.power_ineq),
        power_ext=cat(a.power_ext, b.power_ext),
        ledger=list(a.ledger) + [replace(ev, time=ev.time + offset) for ev in b.ledger],
        opts=replace(a.opts, horizon=a.opts.horizon + b.opts.horizon),
        kind=a.kind,
        tau_mu=a.tau_mu,
        event_pre=cat(a.event_pre, b.event_pre),
        sys=a.sys,
        constant_input=a.constant_input and b.constant_input,
        stats={k: a.stats.get(k, 0) + b.stats.get(k, 0) for k in {**a.stats, **b.stats}},
    )


def event_functions(sys: ComposedSystem, state: FullState):
    """Monitored event functions at a state: mu_i off sigma, g_i(x) on sigma."""
    g_vals = sys.proj.values(state.x)
    out = []
    for i in range(sys.p):
        if i in state.sigma:
            out.append(("deactivation", i, float(g_vals[i])))
        else:
            out.append(("activation", i, float(state.mu[i])))
    return out


# -- serialization -----------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def trajectory_header(n: int, m: int, p: int) -> list[str]:
    cols = ["t"]
    cols += [f"x{i}" for i in range(n)]
    cols += [f"lam{i}" for i in range(m)]
    cols += [f"mu{i}" for i in range(p)]
    cols += ["sigma_mask", "P_tilde", "S_sigma", "S_tilde",
             "power_eq", "power_ineq", "power_ext"]
    return cols


def write_trajectory_csv(traj: Trajectory, path) -> None:
    n, m, p = traj.x.shape[1], traj.lam.shape[1], traj.mu.shape[1]
    masks = traj.sigma_bitmask()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(trajectory_header(n, m, p))
        for k in range(len(traj)):
            row = [_fmt(traj.times[k])]
            row += [_fmt(v) for v in traj.x[k]]
            row += [_fmt(v) for v in traj.lam[k]]
            row += [_fmt(v) for v in traj.mu[k]]
            row.append(str(int(masks[k])))
            row += [
                _fmt(traj.p_tilde[k]),
                _fmt(traj.s_sigma[k]),
                _fmt(traj.s_tilde[k]),
                _fmt(traj.power_eq[k]),
                _fmt(traj.power_ineq[k]),
                _fmt(traj.power_ext[k]),
            ]
            w.writerow(row)


def write_ledger_csv(ledger, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "index", "kind", "S_before", "S_after"])
        for ev in ledger:
            w.writerow(
                [_fmt(ev.time), str(ev.index), ev.kind,
                 _fmt(ev.storage_before), _fmt(ev.storage_after)]
            )


def read_trajectory_csv(path) -> dict:
    """Read back the column blocks; returns arrays keyed like the writer."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader]
    n = sum(1 for c in header if c.startswith("x"))
    m = sum(1 for c in header if c.startswith("lam"))
    p = sum(1 for c in header if c.startswith("mu"))
    data = np.array([[float(v) if i != 1 + n + m + p else float(int(v)) for i, v in enumerate(r)]
                     for r in rows]) if rows else np.zeros((0, len(header)))
    idx = 0
    out = {"t": data[:, 0]}
    idx = 1
    out["x"] = data[:, idx : idx + n]; idx += n
    out["lam"] = data[:, idx : idx + m]; idx += m
    out["mu"] = data[:, idx : idx + p]; idx += p
    out["sigma_mask"] = data[:, idx].astype(np.int64); idx += 1
    for name in ("P_tilde", "S_sigma", "S_tilde", "power_eq", "power_ineq", "power_ext"):
        out[name] = data[:, idx]; idx += 1
    out["n"], out["m"], out["p"] = n, m, p
    return out


def read_ledger_csv(path) -> list:
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            events.append(
                SwitchEvent(
                    time=float(row[0]),
                    index=int(row[1]),
                    kind=row[2],
                    storage_before=float(row[3]),
                    storage_after=float(row[4]),
                )
            )
    return events
