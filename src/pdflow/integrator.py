"""Hybrid time-stepping with event-exact projection switching.

Inside one mode sigma the flow is smooth. Two event families end a mode:

  activation:   mu_i crossing zero from above while i is outside sigma
                (only possible with g_i < 0); mu_i is clamped to exactly 0
  deactivation: g_i crossing zero from below while i is inside sigma

How a mode is advanced depends on the run's field:

- Affine runs (`AffineField`: a QP under constant input) follow the exact
  flow z(t + h) = exp(h Z_sigma) z(t), z = (y, 1). Each mode caches
  exp(k dt_max Z_sigma) for k up to _STACK_CAP and exp(r Z_sigma) for each
  remainder r, so one batched matmul gives the state at every dt_max
  sub-point of a span and one sign test finds the first sub-step that
  crosses. The crossing is located by a safeguarded Newton method on the
  exact event function. The exponentials come from `matrix_exp.expm`.
- Other runs take adaptive Dormand-Prince 5(4) steps over the frozen field of
  the current mode. A crossing bridged by an accepted step is isolated by
  bisection on the step length; each candidate state comes from a single
  exact-length Runge-Kutta step from the step start, so the located state is
  an integrator state, not an interpolant.

Either way the event is applied at a point just past the crossing, with the
event function within event_tol on the post side; sigma is recomputed from
scratch, and the events are classified and appended to the ledger. Samples
are recorded on a fixed stride, at the horizon, and on both sides of every
event; the post-switch sample time is nudged by one ulp so recorded times
stay strictly increasing.

The physics enters through one field object per run (see `interconnect`);
`assemble_trajectory` turns the recorded samples into the `Trajectory`.
Runs are deterministic: identical systems, initial states, and options
produce byte-identical serialized trajectories.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .interconnect import AffineField, ComposedSystem, FullState, GenericField, affine_field
from .matrix_exp import expm
from .switching import ProjectionSystem, SwitchEvent, classify_switch, compute_sigma

__all__ = [
    "IntegratorOptions",
    "STAT_KEYS",
    "Trajectory",
    "EventIsolationError",
    "DivergenceError",
    "simulate",
    "simulate_projection",
    "assemble_trajectory",
    "trajectory_columns",
    "concat_trajectories",
    "write_trajectory_csv",
    "write_ledger_csv",
    "read_trajectory_csv",
    "read_ledger_csv",
]


class EventIsolationError(RuntimeError):
    """A switching time could not be isolated to the event tolerance."""


class DivergenceError(RuntimeError):
    """State became non-finite; carries the last valid (time, state) pair."""

    def __init__(self, message: str, time: float, state: np.ndarray):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass(frozen=True)
class IntegratorOptions:
    """Step-size bounds, tolerances, horizon, and sampling stride (seconds).

    On the DP5(4) path (generic and projection runs) every field applies:
    steps start at dt_init, stay in [dt_min, dt_max] and meet rtol/atol.
    Affine runs follow the exact flow, with no error control: rtol, atol and
    dt_init are unused there, dt_max is the grid on which event signs are
    tested, and dt_min only floors the event bracket. On both paths events
    are located to event_tol on the event function and samples are recorded
    every record_stride; `monitor` also scales its violation budgets by rtol.
    """

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

    def sigma_bitmask(self) -> list[int]:
        """Bit i of sample k's mask is set when i is in sigma; Python ints, any p."""
        return [sum(1 << i for i in s) for s in self.sigma]

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

# Most exponentials exp(k dt_max Z) one mode caches; longer spans go in chunks.
_STACK_CAP = 64


class _ExactMode:
    """One mode of an affine run: Z_sigma, its cached exponentials, its event rows.

    Row i of `event_rows` is c_i with c_i . z the event function of index i,
    nonnegative before its crossing: mu_i off sigma, -g_i on it. Row i of
    `event_slopes` is c_i Z, so c_i Z z is that function's exact derivative.
    """

    def __init__(self, field: AffineField, sigma: frozenset, dt: float):
        self.Z = Z = field.augmented(sigma)
        N, p = Z.shape[0] - 1, field.p
        self.clamped = np.zeros(p, dtype=bool)
        self.clamped[sorted(sigma)] = True
        off = np.eye(N + 1)[field.imu : N]
        on = -np.hstack([field.G, np.zeros((p, N - field.n)), field.d[:, None]])
        self.event_rows = np.where(self.clamped[:, None], on, off)
        self.event_slopes = self.event_rows @ Z
        self.dt = dt
        self.stack = None
        self.rest: dict = {}

    def powers(self, K: int) -> np.ndarray:
        """exp(k dt Z) for k = 1..K, K <= _STACK_CAP; the stack grows by doubling."""
        S = expm(self.dt * self.Z)[None] if self.stack is None else self.stack
        while len(S) < K:
            L = len(S)
            S = np.concatenate([S, S[: min(L, K - L)] @ S[L - 1]])
        self.stack = S
        return S[:K]

    def remainder(self, r: float) -> np.ndarray:
        """exp(r Z) as a stack of one, cached per remainder length."""
        E = self.rest.get(r)
        if E is None:
            E = self.rest[r] = expm(r * self.Z)[None]
        return E


class _Engine:
    """Shared hybrid loop; physics enters through one field object.

    The field supplies the constraint values `g(t, y)` and the offset `imu`
    of mu in y. The loop advances toward the next record time and records
    there; how it advances depends on the field:

    - `AffineField`: each chunk is exact (`_exact_chunk`). rtol, atol and
      dt_init are unused, dt_max is the grid on which event signs are tested,
      and dt_min only floors the event bracket.
    - any other field: one adaptive DP5(4) step over the stage field
      `rates(t, y, clamped)` (`_dp5_step`), with bisection for events.
    """

    def __init__(self, field, proj: ProjectionSystem, y0, sigma0, opts):
        self.field = field
        self.proj = proj
        self.imu = field.imu
        self.p = proj.p
        self.y = np.asarray(y0, dtype=float).copy()
        self.sigma = sigma0
        self.opts = opts
        self.t = 0.0
        self.h = min(opts.dt_init, opts.dt_max, opts.horizon)
        self.tiny = 1e-13 * max(1.0, opts.horizon)
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

    def recorded(self):
        """(times, states, sigmas, event_pre) of the recorded samples, as arrays."""
        T = len(self.samples)
        times = np.array([s[0] for s in self.samples])
        Y = np.array([s[1] for s in self.samples]).reshape(T, self.y.size)
        pre = np.array([s[3] for s in self.samples], dtype=bool)
        return times, Y, [s[2] for s in self.samples], pre

    def _apply_events(self, t_ev, y_ev):
        """Take the application point just past a crossing: clamp, recompute sigma, classify."""
        mu = y_ev[self.imu :]
        np.clip(mu, 0.0, None, out=mu)
        g_ev = self.field.g(t_ev, y_ev)
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
        horizon, stride, tiny = opts.horizon, opts.record_stride, self.tiny
        self._record(self.t, self.y, self.sigma)
        if horizon <= 0:
            return
        advance = self._exact_chunk if isinstance(self.field, AffineField) else self._dp5_step
        next_rec = min(stride, horizon)
        with np.errstate(over="ignore", invalid="ignore"):
            while self.t < horizon - tiny:
                if advance(next_rec) and next_rec <= self.t + tiny:
                    self._record(self.t, self.y, self.sigma)
                    while next_rec <= self.t + tiny:
                        next_rec += stride
                    next_rec = min(next_rec, horizon)
        self._record(self.t, self.y, self.sigma)

    # -- affine runs: exact flow per mode ---------------------------------

    def _exact_chunk(self, t_end) -> bool:
        """Advance exactly toward t_end; False when the chunk ended at an event.

        A chunk is up to _STACK_CAP sub-steps of dt_max, or the remainder
        r < dt_max before t_end. One batched matmul gives the state at every
        sub-point, and one sign test finds the first sub-step that crosses:
        mu_i < 0 off sigma, or g_i > 0 on sigma.
        """
        t, dt, tiny, stats = self.t, self.opts.dt_max, self.tiny, self.stats
        mode = self._modes.get(self.sigma)
        if mode is None:
            mode = self._modes[self.sigma] = _ExactMode(self.field, self.sigma, dt)
        K = min(int((t_end - t + tiny) // dt), _STACK_CAP)
        if K:
            E, h = mode.powers(K), dt
            times = t + dt * np.arange(1, K + 1)
            if abs(t_end - times[-1]) <= tiny:
                times[-1] = t_end
        elif t_end - t <= tiny:
            return True
        else:
            E, h, times = mode.remainder(t_end - t), t_end - t, [t_end]
        z = np.append(self.y, 1.0)
        X = E[:, :-1] @ z
        if not np.isfinite(X).all():
            raise DivergenceError(f"non-finite state after t={t!r}", t, self.y.copy())
        k = None
        if self.p:
            mu = X[:, self.imu :]
            g = self.field.constraint_values(X[:, : self.field.n])
            crossed = np.where(mode.clamped, g > 0.0, mu < 0.0)
            rows = np.flatnonzero(crossed.any(axis=1))
            if rows.size:
                k = int(rows[0])
        taken = len(X) if k is None else k + 1
        stats["step_attempts"] += taken
        stats["cached_steps"] += taken
        if k is None:
            self.t, self.y = float(times[-1]), X[-1].copy()
            return True
        t_a = t if k == 0 else float(times[k - 1])
        z_a = z if k == 0 else np.append(X[k - 1], 1.0)
        s_apply, y_apply = math.inf, None
        for i in np.flatnonzero(crossed[k]):
            phi_end = -g[k, i] if mode.clamped[i] else mu[k, i]
            s, y = self._newton(mode, i, t_a, z_a, h, phi_end, X[k])
            if s < s_apply:
                s_apply, y_apply = s, y
        self._apply_events(t_a + s_apply, y_apply)
        return False

    def _newton(self, mode, i, t_a, z_a, h, phi_end, y_end):
        """(s, state) just past event i's crossing in (0, h] along exp(s Z) z_a.

        Safeguarded Newton on phi(s) = c_i . exp(s Z) z_a with the exact
        derivative c_i Z exp(s Z) z_a, aimed at phi = -event_tol/2 so the
        point lies strictly on the post side; a step that leaves the bracket
        or does not halve the last one is replaced by bisection. The point's
        time t_a + s must also lie past t_a in floating point, so a crossing
        closer to t_a than its time resolution cannot meet the tolerance.
        """
        opts = self.opts
        tol = opts.event_tol
        if phi_end >= -tol:
            return h, y_end.copy()
        c, dc = mode.event_rows[i], mode.event_slopes[i]
        target = -0.5 * tol
        lo, hi = 0.0, h
        psi_lo, psi_hi = float(c @ z_a) - target, phi_end - target
        s = min(max(h * psi_lo / (psi_lo - psi_hi), 0.0), h)
        last_step = h
        floor = max(opts.dt_min, 4.0 * np.finfo(float).eps * h)
        for _ in range(200):
            z = expm(s * mode.Z) @ z_a
            self.stats["bisection_propagations"] += 1
            psi = float(c @ z) - target
            if abs(psi) <= 0.25 * tol and t_a + s > t_a:
                return s, z[:-1]
            if psi > 0.0:
                lo = s
            else:
                hi = s
            if hi - lo <= floor:
                break
            slope = float(dc @ z)
            s_new = s - psi / slope if slope else lo
            if not lo < s_new < hi or abs(s_new - s) > 0.5 * last_step:
                s_new = 0.5 * (lo + hi)
            last_step, s = abs(s_new - s), s_new
        raise EventIsolationError(
            f"cannot isolate the event of index {i} in [{t_a!r}, {t_a + h!r}] "
            f"(residual {psi + target!r})"
        )

    # -- other runs: adaptive DP5(4) ----------------------------------------

    def _stage_field(self, sigma):
        """The stage field of a mode, built on the mode's first visit."""
        f = self._modes.get(sigma)
        if f is None:
            mask = np.zeros(self.p, dtype=bool)
            if sigma:
                mask[list(sigma)] = True
            rhs = self.field.rates
            f = self._modes[sigma] = lambda t, y: rhs(t, y, mask)
        return f

    def _error_norm(self, err, y0, y1) -> float:
        if err.size == 0:
            return 0.0
        r = err / (self.opts.atol + self.opts.rtol * np.maximum(np.abs(y0), np.abs(y1)))
        val = math.sqrt(float(r @ r) / r.size)
        return val if math.isfinite(val) else math.inf

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
                    lambda tt, yy, i=i: -self.field.g(tt, yy)[i],
                    -g_end[i],
                )
            )
        return min(candidates)

    def _dp5_step(self, next_rec) -> bool:
        """One accepted DP5(4) step toward next_rec; False when it ended at an event."""
        opts, stats = self.opts, self.stats
        cap = min(self.h, opts.dt_max, opts.horizon - self.t)
        if next_rec > self.t + self.tiny:
            cap = min(cap, next_rec - self.t)
        h_try = cap
        f = self._stage_field(self.sigma)
        k1 = f(self.t, self.y)
        stats["rhs_evals"] += 1
        while True:
            stats["step_attempts"] += 1
            y_new, err = _step_with_error(f, self.t, self.y, h_try, k1)
            stats["rhs_evals"] += 6
            err_norm = self._error_norm(err, self.y, y_new)
            if err_norm <= 1.0:
                break
            if h_try <= opts.dt_min * (1 + 1e-12):
                stats["forced_accepts"] += 1
                break
            stats["rejected_steps"] += 1
            h_try = max(opts.dt_min, h_try * max(0.2, 0.9 * err_norm ** -0.2))
        if not np.isfinite(y_new).all():
            raise DivergenceError(f"non-finite state at t={self.t!r}", self.t, self.y.copy())
        # event detection on the accepted span
        if self.p:
            mu_end = y_new[self.imu :]
            g_end = self.field.g(self.t + h_try, y_new)
            sigma = self.sigma
            act = [i for i in range(self.p) if i not in sigma and mu_end[i] < 0.0]
            deact = [i for i in range(self.p) if i in sigma and g_end[i] > 0.0]
            if act or deact:
                s_apply = self._locate_earliest(
                    f, self.t, self.y, h_try, k1, act, deact, mu_end, g_end
                )
                y_ev, _ = _propagate(f, self.t, self.y, s_apply, k1)
                stats["rhs_evals"] += 5
                self._apply_events(self.t + s_apply, y_ev)
                return False
        self.t = self.t + h_try
        self.y = y_new
        if err_norm > 0:
            h = h_try * min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        else:
            h = h_try * 5.0
        self.h = min(max(h, opts.dt_min), opts.dt_max)
        return True


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
    powers are well defined between breakpoints. The problem's types choose
    the field: compiled per mode (`AffineField`) or evaluated per stage
    through the oracles (`GenericField`).
    """
    n, m, p = sys.n, sys.m, sys.p
    if initial.x.size != n or initial.lam.size != m or initial.mu.size != p:
        raise ValueError("initial state dimensions disagree with the system")
    v_fn, v_const = _resolve_input(v, n, "v")
    if v_fn is not None and not v_const and v_dot is None:
        raise ValueError("time-varying v requires v_dot")
    vd_fn, _ = _resolve_input(v_dot, n, "v_dot")

    field = affine_field(sys, v_fn(0.0) if v_fn is not None else None) if v_const else None
    if field is None:
        field = GenericField(sys, v_fn)
    sigma0 = compute_sigma(initial.mu, sys.proj.values(initial.x))
    y0 = np.concatenate([initial.x, initial.lam, initial.mu])
    engine = _Engine(field, sys.proj, y0, sigma0, opts)
    engine.run()
    times, Y, sigmas, pre = engine.recorded()
    VD = None if vd_fn is None else np.array([vd_fn(t) for t in times]).reshape(len(times), n)
    return assemble_trajectory(
        field, times, Y, sigmas, pre, VD,
        ledger=engine.ledger, opts=opts, constant_input=v_const, stats=engine.stats,
    )


class _InputField:
    """Field of a projection run: the engine state is mu, driven by x = u(t).

    The recorded state is (u, mu), so `derivatives` returns rows (u_dot, mu_dot);
    u_dot is zero when the input is constant.
    """

    imu = 0

    def __init__(self, proj: ProjectionSystem, u, u_dot):
        self.sys = self.proj = proj
        self.u, self.u_dot = u, u_dot

    def rates(self, t, y, clamped) -> np.ndarray:
        md = self.proj.values(self.u(t)) / self.proj.tau_mu
        md[clamped] = 0.0
        return md

    def g(self, t, y) -> np.ndarray:
        return self.proj.values(self.u(t))

    def derivatives(self, Z: np.ndarray, sigmas, times) -> np.ndarray:
        T, n = len(times), self.proj.n
        D = np.zeros_like(Z)
        if self.u_dot is not None:
            D[:, :n] = np.array([self.u_dot(t) for t in times]).reshape(T, n)
        for k in range(T):
            D[k, n:] = self.rates(times[k], Z[k, n:], sorted(sigmas[k]))
        return D


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
    samples and its x_dot columns their rates; the equality-side storages and
    powers are identically zero.
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

    field = _InputField(proj, u_fn, ud_fn)
    sigma0 = compute_sigma(mu0, proj.values(u_fn(0.0)))
    engine = _Engine(field, proj, mu0, sigma0, opts)
    engine.run()
    times, MU, sigmas, pre = engine.recorded()
    U = np.array([u_fn(t) for t in times]).reshape(len(times), proj.n)
    return assemble_trajectory(
        field, times, np.hstack([U, MU]), sigmas, pre,
        ledger=engine.ledger, opts=opts, constant_input=u_const, stats=engine.stats,
    )


def trajectory_columns(sys, X, MU, D, VD=None) -> dict:
    """Derived columns of a run, vectorized over its samples.

    `sys` is the run's ComposedSystem, or the ProjectionSystem of a projection
    run (x is its input; P_tilde and the equality and external powers are
    zero). Rows of `D` are the field (x_dot, lam_dot, mu_dot) at the rows of
    (X, MU), with mu_dot already zero on each sample's clamped indices; `VD`
    holds v_dot at the samples, or None for a constant input. The port powers:

        equality   = udot' ydot with u = y_tilde + v and y = -x
        inequality = u_s' y_s with u_s = xdot and y_s = d/dt y_tilde
        external   = -vdot' xdot (zero whenever v is constant)

    where d/dt y_tilde = sum mudot_i grad g_i + sum mu_i hess g_i xdot. For
    non-affine constraints the gradient and Hessian oracles are stacked
    sample by sample; everything else is one array operation.
    """
    composed = isinstance(sys, ComposedSystem)
    proj = sys.proj if composed else sys
    T, n = X.shape
    m = D.shape[1] - n - proj.p
    x_dot, lam_dot, mu_dot = D[:, :n], D[:, n : n + m], D[:, n + m :]
    if proj.p == 0 or proj._affine is not None:
        G, d = proj._affine or (np.zeros((0, n)), np.zeros(0))
        g = X @ G.T + d
        y_rate = mu_dot @ G
    else:
        g = np.array([proj.values(x) for x in X]).reshape(T, proj.p)
        grads = np.array([proj.grads(x) for x in X]).reshape(T, proj.p, n)
        hess = np.array([proj.hessians(x) for x in X]).reshape(T, proj.p, n, n)
        y_rate = np.einsum("ki,kij->kj", mu_dot, grads)
        y_rate += np.einsum("ki,kijl,kl->kj", MU, hess, x_dot)
    s_sigma = 0.5 * (mu_dot**2) @ proj.tau_mu
    power_ineq = np.einsum("ki,ki->k", x_dot, y_rate)
    if not composed:
        p_tilde, power_eq, power_ext = np.zeros(T), np.zeros(T), np.zeros(T)
    else:
        p_tilde = 0.5 * np.einsum("ki,ij,kj->k", x_dot, sys.bm.tau_x, x_dot)
        if m:
            p_tilde += 0.5 * np.einsum("ki,ij,kj->k", lam_dot, sys.bm.tau_lam, lam_dot)
        if VD is None:
            power_ext = np.zeros(T)
            power_eq = -power_ineq
        else:
            power_ext = -np.einsum("ki,ki->k", VD, x_dot)
            power_eq = -np.einsum("ki,ki->k", y_rate + VD, x_dot)
    return {
        "g": g, "x_dot": x_dot, "lam_dot": lam_dot, "mu_dot": mu_dot,
        "p_tilde": p_tilde, "s_sigma": s_sigma, "s_tilde": p_tilde + s_sigma,
        "power_eq": power_eq, "power_ineq": power_ineq, "power_ext": power_ext,
    }


def assemble_trajectory(field, times, Z, sigmas, event_pre, VD=None, **given) -> Trajectory:
    """Build a run's Trajectory from its samples; every Trajectory is made here.

    `Z` holds the recorded states (x, lam, mu) row by row (for a projection
    run, (u, mu)); the field's `derivatives` and `trajectory_columns` derive
    the other columns. `given` sets the remaining fields (ledger, opts,
    constant_input, stats) and may replace derived columns with stored ones.
    """
    sys = field.sys
    composed = isinstance(sys, ComposedSystem)
    proj = sys.proj if composed else sys
    n, m = proj.n, (sys.m if composed else 0)
    X, MU = Z[:, :n], Z[:, n + m :]
    cols = trajectory_columns(sys, X, MU, field.derivatives(Z, sigmas, times), VD)
    cols.update(given)
    return Trajectory(
        times=times, x=X, lam=Z[:, n : n + m], mu=MU, sigma=sigmas, event_pre=event_pre,
        kind="composed" if composed else "projection", tau_mu=proj.tau_mu.copy(), sys=sys,
        **cols,
    )


def concat_trajectories(a: Trajectory, b: Trajectory) -> Trajectory:
    """Append run b (started from a's terminal state) onto a, shifting times.

    b's initial sample duplicates a's terminal one and is dropped.
    """
    offset = float(a.times[-1])
    columns = {
        f.name: np.concatenate([getattr(a, f.name), getattr(b, f.name)[1:]], axis=0)
        for f in fields(Trajectory)
        if isinstance(getattr(a, f.name), np.ndarray) and f.name != "tau_mu"
    }
    columns["times"][len(a) :] += offset
    return replace(
        a,
        **columns,
        sigma=a.sigma + b.sigma[1:],
        ledger=list(a.ledger) + [replace(ev, time=ev.time + offset) for ev in b.ledger],
        opts=replace(a.opts, horizon=a.opts.horizon + b.opts.horizon),
        constant_input=a.constant_input and b.constant_input,
        stats={k: a.stats.get(k, 0) + b.stats.get(k, 0) for k in {**a.stats, **b.stats}},
    )


# -- serialization -----------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def trajectory_header(n: int, m: int, p: int) -> list[str]:
    cols = ["t"]
    cols += [f"x{i}" for i in range(n)]
    cols += [f"lam{i}" for i in range(m)]
    cols += [f"mu{i}" for i in range(p)]
    cols += ["sigma_mask", "P_tilde", "S_sigma", "S_tilde",
             "power_eq", "power_ineq", "power_ext", "event_pre"]
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
            row.append(str(masks[k]))
            row += [
                _fmt(traj.p_tilde[k]),
                _fmt(traj.s_sigma[k]),
                _fmt(traj.s_tilde[k]),
                _fmt(traj.power_eq[k]),
                _fmt(traj.power_ineq[k]),
                _fmt(traj.power_ext[k]),
            ]
            row.append(str(int(traj.event_pre[k])))
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
    """Read back the column blocks; returns arrays keyed like the writer.

    `sigma_mask` comes back as a list of Python ints (exact for any p) and
    `event_pre` as a bool array; a file without the columns the writer
    produces raises ValueError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader]
    n = sum(1 for c in header if c.startswith("x"))
    m = sum(1 for c in header if c.startswith("lam"))
    p = sum(1 for c in header if c.startswith("mu"))
    if header != trajectory_header(n, m, p):
        raise ValueError(f"{path}: unexpected trajectory columns")
    imask = 1 + n + m + p
    out = {"sigma_mask": [int(r[imask]) for r in rows],
           "event_pre": np.array([r[-1] == "1" for r in rows], dtype=bool)}
    data = np.array([[float(v) for v in r[:imask] + r[imask + 1 : -1]] for r in rows])
    data = data.reshape(len(rows), len(header) - 2)
    out["t"] = data[:, 0]
    idx = 1
    out["x"] = data[:, idx : idx + n]; idx += n
    out["lam"] = data[:, idx : idx + m]; idx += m
    out["mu"] = data[:, idx : idx + p]; idx += p
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
