"""Hybrid time-stepping with event-exact projection switching.

Inside one mode sigma the flow is smooth. Two event families end a mode:

  activation:   mu_i crossing zero from above while i is outside sigma
                (only possible with g_i < 0); mu_i is clamped to exactly 0
  deactivation: g_i crossing zero from below while i is inside sigma

How a mode is advanced depends on whether the run's field is affine in it
(`affine_in`): in every mode of a QP under constant input (`AffineField`), and
in a QCQP's (`QuadraticField`) once each curved constraint is clamped with
mu_i = 0, so the bilinear terms mu_i P_i x vanish. The path is chosen per mode:

- Affine modes (all of an `AffineField` run's) follow the exact
  flow z(t + h) = exp(h Z_sigma) z(t), z = (y, 1), on the sub-step grid
  h = stride / ceil(stride / dt_max) <= dt_max, so every record time is a
  grid point. Each mode caches exp(k h Z_sigma) for k up to _STACK_CAP, so
  one batched matmul gives the state at every grid point of a chunk, one
  sign test finds the first sub-step that crosses, and the chunk records
  each sample before it. A remainder exp(r Z_sigma), r < h, reaches the next
  record time after an event, or a horizon off the grid. A mode's Taylor
  table T_k = (h Z_sigma)^k / k! (`matrix_exp.taylor_table`) gives every
  exponential: exp(s Z_sigma) z = sum (s/h)^k T_k z for s <= h. Modes beyond
  the table's range use `matrix_exp.expm`.
- Other modes take adaptive Dormand-Prince 5(4) steps over the frozen field
  of the mode (`stage`) and test event signs at the end of each accepted
  step. One step loop serves every field: stages run on the augmented state
  z = (1, y) and form one matrix K whose column 0 is zero; the last, f at
  the endpoint, is the next step's first after a step accepted with no event
  (FSAL), and never after an exact chunk. A `QuadraticField` stage is one
  product that also gives g, so the sign test reads g at the step's end from
  the last stage; other fields' `g` is called there.

Event i's function is phi_i = mu_i off sigma and -g_i on it. One
safeguarded Newton method locates each crossing of a span from phi_i and its
exact slope at a candidate state: exp(s Z) z in affine modes, a polynomial in s
once T_k z is formed for the crossed sub-step; in DP5(4) modes a single
exact-length step from the step start (an integrator state, not an
interpolant) and the field there. The earliest point is applied, just past
its crossing with phi_i within event_tol on the post side; sigma is
recomputed, and the events are classified and appended to the ledger. Samples
are recorded on a fixed stride, at the horizon, and on both sides of every
event; the post-switch sample time is nudged by one ulp so recorded times
stay strictly increasing.

The physics enters through one field object per run (see `interconnect`);
`assemble_trajectory` turns the recorded samples into the `Trajectory`.
Runs are deterministic: identical systems, initial states, and options
produce byte-identical serialized trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .interconnect import ComposedSystem, FullState, GenericField, QuadraticField, compiled_field
from .matrix_exp import expm, power_stack, taylor_table
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

    In modes whose field is not affine DP5(4) steps start at dt_init, stay
    in [dt_min, dt_max] and meet rtol/atol. Affine modes follow the exact
    flow: rtol, atol and dt_init are unused there, and event signs are tested
    on the grid h = stride / ceil(stride / dt_max) <= dt_max, with stride the
    record_stride (or the horizon, if shorter), so every record time is a
    grid point. On both paths dt_min floors the event bracket, events are
    located to event_tol on the event function (stat `bisection_propagations`
    counts the root finder's iterations), samples are recorded every
    record_stride, and `monitor` scales budgets by rtol.
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


# Dormand-Prince 5(4) coefficients: stage j is f(t + C_j h, z + (h A_j) . K).
# A's last row is the 5th-order weights, so the last stage is f at the endpoint.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([a + (0.0,) * (7 - len(a)) for a in (
    (), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dp5(f, t, z, h, k1, width):
    """One DP5(4) step from (t, z), z = (1, y), over h with first stage k1 = y':
    the 5th-order endpoint z5 and the (7, width) stage matrix K. Row j is
    (0, stage j's output), so column 0, the rate of z's leading 1, stays zero;
    the last row is f(t + h, z5)."""
    K = np.zeros((7, width))
    K[0, 1 : k1.size + 1] = k1
    hA, KZ = h * _A, K[:, : z.size]
    for j in range(1, 7):
        z_j = z + hA[j] @ KZ
        K[j, 1:] = f(t + _C[j] * h, z_j)
    return z_j, K


STAT_KEYS = (
    "step_attempts",
    "rejected_steps",
    "rhs_evals",
    "cached_steps",
    "forced_accepts",
    "bisection_propagations",
)

# Most exponentials exp(k h Z) one mode caches; longer spans go in chunks.
_STACK_CAP = 64
# Largest K of a mode's Taylor table T_0..T_K; a stiffer mode uses `expm`.
_TAYLOR_CAP = 30


def _event_values(clamped, mu, g):
    """phi_i = mu_i off sigma, -g_i on it: event i's function, nonnegative before
    its crossing. Linear in (mu, g), so it maps their rates to its slope."""
    return np.where(clamped, -g, mu)


class _ExactMode:
    """One affine mode: Z_sigma, its Taylor table, cached exponentials, event rows.

    `table` holds T_k = (dt Z)^k / k! for k = 0..K (None beyond _TAYLOR_CAP
    terms), so exp(s Z) z = sum (s/dt)^k T_k z for s <= dt (`flow`).

    Row i of `event_rows` is c_i with c_i . z event i's function; row i of
    `event_slopes` is c_i Z, so c_i Z z is its exact derivative. A QCQP's
    curved rows are clamped in every affine mode, and `event` adds their
    -0.5 x'P_i x.
    """

    def __init__(self, field: QuadraticField, sigma: frozenset, dt: float):
        self.Z = Z = field.augmented(sigma)
        N, p = Z.shape[0] - 1, field.p
        self.clamped = np.zeros(p, dtype=bool)
        self.clamped[sorted(sigma)] = True
        g_rows = np.hstack([field.G, np.zeros((p, N - field.n)), field.d[:, None]])
        mu_rows = np.eye(N + 1)[field.imu : N]
        self.event_rows = _event_values(self.clamped[:, None], mu_rows, g_rows)
        self.event_slopes = self.event_rows @ Z
        self.P, self.n = field.P, field.n
        self.dt = dt
        self.table = taylor_table(dt * Z, _TAYLOR_CAP)
        # exp(k dt Z) for k = 1.. (`powers`); the table summed smallest terms first
        self.stack = (expm(dt * Z) if self.table is None else self.table[::-1].sum(axis=0))[None]

    def event(self, i, z):
        """(phi_i, its slope) at the augmented state z."""
        phi, slope = float(self.event_rows[i] @ z), float(self.event_slopes[i] @ z)
        if self.P is not None:  # minus 0.5 x'P_i x, and its rate (P_i x) . x_dot
            Px = self.P[i] @ z[: self.n]
            phi -= 0.5 * float(Px @ z[: self.n])
            slope -= float(Px @ (self.Z[: self.n] @ z))
        return phi, slope

    def flow(self, z):
        """s -> exp(s Z) z for 0 < s <= dt: a polynomial from the table's T_k z,
        formed here once, or a Pade exponential per s for a mode without one."""
        if self.table is None:
            return lambda s: expm(s * self.Z) @ z
        V = self.table @ z
        return lambda s: (s / self.dt) ** np.arange(len(V)) @ V

    def powers(self, K: int) -> np.ndarray:
        """exp(k dt Z) for k = 1..K, K <= _STACK_CAP; the stack grows by doubling."""
        self.stack = power_stack(self.stack, K)
        return self.stack[:K]


class _Engine:
    """Shared hybrid loop; physics enters through one field object.

    The field supplies the constraint values `g(t, y)` and the offset `imu`
    of mu in y. The loop advances to the horizon, and each advance records
    the record times it reaches (`_sample`). Each advance is chosen by the
    current mode, by `field.affine_in(sigma, y)`:

    - affine: an exact chunk on the sub-step grid (`_exact_chunk`), which
      drops the FSAL stage `k_last`; rtol, atol and dt_init are unused here.
    - otherwise: one adaptive DP5(4) step over the mode's stage field
      `stage(sigma, clamped)` on z = (1, y) (`_dp5_step`); `g_rate` gives
      on-sigma slopes.

    Both hand a crossed span to `_apply_first_event`. A run can visit one
    mode on both paths, so each path caches its modes by sigma on its own.
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
        # a longer stride than the horizon leaves the horizon the only record time
        self.stride = self.next_rec = min(opts.record_stride, opts.horizon)
        # the exact path's sub-step; the tolerance keeps 0.07 / 0.01 at 7 sub-steps
        self.grid = self.stride / max(1, math.ceil(self.stride / opts.dt_max * (1 - 1e-12)))
        self.tiny = 1e-13 * max(1.0, opts.horizon)
        self.samples: list[tuple[float, np.ndarray, frozenset, bool]] = []
        self.ledger: list[SwitchEvent] = []
        self.stats = dict.fromkeys(STAT_KEYS, 0)
        self._exact_modes: dict = {}  # sigma -> _ExactMode
        self._stages: dict = {}  # sigma -> (stage field, clamped mask)
        self.k_last = None  # the last accepted DP5(4) step's final stage, y' at its end
        # a stage matrix row: the leading 1's zero rate, y', and g where the stage gives it
        self.width = 1 + self.y.size + (self.p if isinstance(field, QuadraticField) else 0)

    # -- recording -------------------------------------------------------

    def _record(self, t, y, sigma, pre=False):
        if self.samples:
            last_t = self.samples[-1][0]
            if t <= last_t:
                if sigma == self.samples[-1][2] and not pre:
                    return
                t = np.nextafter(last_t, np.inf)
        self.samples.append((float(t), y.copy(), sigma, pre))

    def _sample(self, t, y):
        """Record (t, y) at the record time it reaches; move that time past t."""
        self._record(t, y, self.sigma)
        while self.next_rec <= t + self.tiny:
            self.next_rec += self.stride
        if t < self.opts.horizon - self.tiny:  # the horizon is the last record time
            self.next_rec = min(self.next_rec, self.opts.horizon)

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

    # -- event location ---------------------------------------------------

    def _apply_first_event(self, event, t_a, h, phi_a, phi_end, y_end):
        """Locate each event crossed on (t_a, t_a + h] and apply the earliest.

        `event(i, s)` gives (phi_i, its slope, state) at t_a + s; `phi_a` and
        `phi_end` hold the event functions at t_a and t_a + h, y_end the state.
        """
        s_apply, y_apply = math.inf, None
        for i in np.flatnonzero(phi_end < 0.0):
            s, y = self._locate(event, i, t_a, h, phi_a[i], phi_end[i], y_end)
            if s < s_apply:
                s_apply, y_apply = s, y
        self._apply_events(t_a + s_apply, y_apply)

    def _locate(self, event, i, t_a, h, phi_a, phi_end, y_end):
        """(s, state) just past event i's crossing in (0, h].

        Safeguarded Newton on phi_i along the span with its exact slope, aimed
        at phi = -event_tol/2 so the point lies strictly on the post side; a
        step that leaves the bracket or does not halve the last one is
        replaced by bisection. The point's time t_a + s must also lie past
        t_a in floating point, so a crossing closer to t_a than its time
        resolution cannot meet the tolerance.
        """
        tol = self.opts.event_tol
        if phi_end >= -tol:
            return h, y_end.copy()
        target = -0.5 * tol
        lo, hi, last_step = 0.0, h, h
        psi_lo, psi_hi = phi_a - target, phi_end - target
        s = min(max(h * psi_lo / (psi_lo - psi_hi), 0.0), h)
        floor = max(self.opts.dt_min, 4.0 * np.finfo(float).eps * h)
        for _ in range(200):
            phi, slope, y = event(i, s)
            self.stats["bisection_propagations"] += 1
            psi = phi - target
            if abs(psi) <= 0.25 * tol and t_a + s > t_a:
                return s, y
            lo, hi = (s, hi) if psi > 0.0 else (lo, s)
            if hi - lo <= floor:
                break
            s_new = s - psi / slope if slope else lo
            if not lo < s_new < hi or abs(s_new - s) > 0.5 * last_step:
                s_new = 0.5 * (lo + hi)
            last_step, s = abs(s_new - s), s_new
        raise EventIsolationError(
            f"cannot isolate the event of index {i} in [{t_a!r}, {t_a + h!r}] "
            f"(residual {psi + target!r})"
        )

    # -- main loop ----------------------------------------------------------

    def run(self):
        horizon = self.opts.horizon
        self._record(self.t, self.y, self.sigma)
        if horizon <= 0:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            while self.t < horizon - self.tiny:
                if self.field.affine_in(self.sigma, self.y):
                    self._exact_chunk()
                else:
                    self._dp5_step()
        self._record(self.t, self.y, self.sigma)

    # -- affine modes: exact flow -------------------------------------------

    def _exact_chunk(self):
        """Advance exactly along the sub-step grid, sampling the record times passed.

        The grid is h = stride / ceil(stride / dt_max) <= dt_max, so from a
        record time on every record time is a grid point, and a chunk is up
        to _STACK_CAP grid points toward the horizon. An event starts the grid
        afresh: the chunk then stops at the next record time, reached by a
        remainder sub-step r < h, as is a horizon off the grid. One batched
        matmul gives the state at every sub-point, one sign test of the event
        functions finds the first sub-step that crosses, and each record time
        before it is sampled.
        """
        t, h, tiny, rec, stats = self.t, self.grid, self.tiny, self.next_rec, self.stats
        self.k_last = None  # a stage from before the chunk never seeds a DP5(4) step
        mode = self._exact_modes.get(self.sigma)
        if mode is None:
            mode = self._exact_modes[self.sigma] = _ExactMode(self.field, self.sigma, h)
        j = round((rec - t) / h)
        on_grid = abs(t + j * h - rec) <= tiny
        if on_grid and not j:  # an event ended on the record time
            return self._sample(t, self.y)
        t_stop = self.opts.horizon if on_grid else rec
        K = min(int((t_stop - t + tiny) // h), _STACK_CAP)
        z = np.append(self.y, 1.0)
        if K:
            X = mode.powers(K)[:, :-1] @ z
        else:  # the remainder sub-step
            h = t_stop - t
            X = mode.flow(z)(h)[None, :-1]
        times = t + h * np.arange(1, len(X) + 1)
        if not np.isfinite(X).all():
            raise DivergenceError(f"non-finite state after t={t!r}", t, self.y.copy())
        k = len(X)  # the first row past a crossing
        if self.p:
            g = self.field.constraint_values(X[:, : self.field.n])
            phi = _event_values(mode.clamped, X[:, self.imu :], g)
            rows = np.flatnonzero((phi < 0.0).any(axis=1))
            if rows.size:
                k = int(rows[0])
        taken = min(k + 1, len(X))
        stats["step_attempts"] += taken
        stats["cached_steps"] += taken
        j = round((self.next_rec - t) / h)
        while 0 < j <= k and abs(times[j - 1] - self.next_rec) <= tiny:
            times[j - 1] = self.next_rec
            self._sample(self.next_rec, X[j - 1])
            j = round((self.next_rec - t) / h)
        if k == len(X):
            self.t, self.y = float(times[-1]), X[-1].copy()
            return
        t_a = t if k == 0 else float(times[k - 1])
        z_a = z if k == 0 else np.append(X[k - 1], 1.0)

        flow = mode.flow(z_a)

        def event(i, s):
            z = flow(s)
            return (*mode.event(i, z), z[:-1])

        phi_a = [mode.event(i, z_a)[0] for i in range(self.p)]
        self._apply_first_event(event, t_a, h, phi_a, phi[k], X[k])

    # -- other modes: adaptive DP5(4) ---------------------------------------

    def _stage_field(self, sigma):
        """(stage field, clamped mask) of a mode, built on the mode's first visit."""
        mode = self._stages.get(sigma)
        if mode is None:
            mask = np.zeros(self.p, dtype=bool)
            mask[sorted(sigma)] = True
            mode = self._stages[sigma] = self.field.stage(sigma, mask), mask
        return mode

    def _error_norm(self, err, y0, y1) -> float:
        if err.size == 0:
            return 0.0
        r = err / (self.opts.atol + self.opts.rtol * np.maximum(np.abs(y0), np.abs(y1)))
        val = math.sqrt(float(r @ r) / r.size)
        return val if math.isfinite(val) else math.inf

    def _dp5_step(self):
        """One accepted DP5(4) step toward the next record time, or up to an event."""
        opts, stats, t, y, imu, width = self.opts, self.stats, self.t, self.y, self.imu, self.width
        N = y.size
        cap = min(self.h, opts.dt_max, opts.horizon - t)
        if self.next_rec > t + self.tiny:
            cap = min(cap, self.next_rec - t)
        h_try = cap
        f, clamped = self._stage_field(self.sigma)
        z = np.concatenate(((1.0,), y))
        k1, self.k_last = self.k_last, None
        if k1 is None:
            k1 = f(t, z)[:N]
            stats["rhs_evals"] += 1
        while True:
            stats["step_attempts"] += 1
            z_new, K = _dp5(f, t, z, h_try, k1, width)
            stats["rhs_evals"] += 6
            err_norm = self._error_norm(h_try * (_E @ K[:, 1 : N + 1]), y, z_new[1:])
            if err_norm <= 1.0:
                break
            if h_try <= opts.dt_min * (1 + 1e-12):
                stats["forced_accepts"] += 1
                break
            stats["rejected_steps"] += 1
            h_try = max(opts.dt_min, h_try * max(0.2, 0.9 * err_norm ** -0.2))
        y_new = z_new[1:]
        if not np.isfinite(y_new).all():
            raise DivergenceError(f"non-finite state at t={t!r}", t, y.copy())
        if self.p:  # g at the endpoint: the last stage's, if it gives g
            g_end = K[6, N + 1 :] if width > N + 1 else self.field.g(t + h_try, y_new)
            phi_end = _event_values(clamped, y_new[imu:], g_end)
            if (phi_end < 0.0).any():

                def event(i, s):
                    z_s, K_s = _dp5(f, t, z, s, k1, width)
                    y_s, y_dot = z_s[1:], K_s[6, 1 : N + 1]
                    stats["rhs_evals"] += 6
                    phi = _event_values(clamped, y_s[imu:], self.field.g(t + s, y_s))
                    slope = _event_values(clamped, y_dot[imu:],
                                          self.field.g_rate(t + s, y_s, y_dot))
                    return float(phi[i]), float(slope[i]), y_s

                phi_a = _event_values(clamped, y[imu:], self.field.g(t, y))
                self._apply_first_event(event, t, h_try, phi_a, phi_end, y_new)
                return
        self.t = t + h_try
        self.y = y_new
        self.k_last = K[6, 1 : N + 1]
        if err_norm > 0:
            h = h_try * min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        else:
            h = h_try * 5.0
        self.h = min(max(h, opts.dt_min), opts.dt_max)
        if self.next_rec <= self.t + self.tiny:
            self._sample(self.t, self.y)


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
    the field: compiled per mode (`compiled_field`) or evaluated per stage
    through the oracles (`GenericField`).
    """
    n, m, p = sys.n, sys.m, sys.p
    if initial.x.size != n or initial.lam.size != m or initial.mu.size != p:
        raise ValueError("initial state dimensions disagree with the system")
    v_fn, v_const = _resolve_input(v, n, "v")
    if v_fn is not None and not v_const and v_dot is None:
        raise ValueError("time-varying v requires v_dot")
    vd_fn, _ = _resolve_input(v_dot, n, "v_dot")

    field = compiled_field(sys, v_fn(0.0) if v_fn is not None else None) if v_const else None
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
    stage, affine_in = GenericField.stage, GenericField.affine_in

    def __init__(self, proj: ProjectionSystem, u, u_dot):
        self.sys = self.proj = proj
        self.u, self.u_dot = u, u_dot

    def rates(self, t, y, clamped) -> np.ndarray:
        md = self.proj.values(self.u(t)) / self.proj.tau_mu
        md[clamped] = 0.0
        return md

    def g(self, t, y) -> np.ndarray:
        return self.proj.values(self.u(t))

    def g_rate(self, t, y, y_dot) -> np.ndarray:
        """d/dt g = grads(u) u_dot; zero under a constant input."""
        u_dot = np.zeros(self.proj.n) if self.u_dot is None else self.u_dot(t)
        return self.proj.grads(self.u(t)) @ u_dot

    def derivatives(self, Z: np.ndarray, sigmas, times) -> np.ndarray:
        T, n, proj = len(times), self.proj.n, self.proj
        D = np.zeros_like(Z)
        if self.u_dot is not None:
            D[:, :n] = np.array([self.u_dot(t) for t in times]).reshape(T, n)
        clamped = [[i in s for i in range(proj.p)] for s in sigmas]
        D[:, n:] = np.where(clamped, 0.0, proj.sampled(Z[:, :n], 0)[0] / proj.tau_mu)
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

    where d/dt y_tilde = sum mudot_i grad g_i + sum mu_i hess g_i xdot.
    Affine and quadratic constraints are evaluated from their stack, so every
    column is one array operation; other oracles are called sample by sample.
    """
    composed = isinstance(sys, ComposedSystem)
    proj = sys.proj if composed else sys
    T, n = X.shape
    m = D.shape[1] - n - proj.p
    x_dot, lam_dot, mu_dot = D[:, :n], D[:, n : n + m], D[:, n + m :]
    if proj._stack is not None and proj._stack[0] is None:  # affine rows only
        G, d = proj._stack[1:]
        g = X @ G.T + d
        y_rate = mu_dot @ G
    else:
        g, grads, hess = proj.sampled(X)
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
# An artifact CSV is a header line, then one line per row, cells joined by ",".
# A float is written as str(float), the shortest decimal that reads back as the
# same double, so identical runs give byte-identical files.


_CSV_BLOCK = 256  # rows converted at a time: a long run never holds all its cells


def write_csv(path, header, columns) -> None:
    """Write `columns` (one sequence per name in `header`) to `path`."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(0, len(columns[0]), _CSV_BLOCK):
            block = [c[k : k + _CSV_BLOCK] for c in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*block))


def read_csv(path, header) -> list[list[str]]:
    """The rows of `path` as lists of cells; a first line other than `header`, or
    a row of another width, raises ValueError naming the file and line."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path}:1: expected header {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}:{k + 2}: expected {len(header)} fields, got {len(row)}")
    return rows


DERIVED_COLUMNS = ["P_tilde", "S_sigma", "S_tilde", "power_eq", "power_ineq", "power_ext"]
LEDGER_HEADER = ["t", "index", "kind", "S_before", "S_after"]


def trajectory_header(n: int, m: int, p: int) -> list[str]:
    states = [f"{b}{i}" for b, size in (("x", n), ("lam", m), ("mu", p)) for i in range(size)]
    return ["t", *states, "sigma_mask", *DERIVED_COLUMNS, "event_pre"]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, trajectory_header(traj.x.shape[1], traj.lam.shape[1], traj.mu.shape[1]), [
        traj.times, *traj.x.T, *traj.lam.T, *traj.mu.T, traj.sigma_bitmask(),
        traj.p_tilde, traj.s_sigma, traj.s_tilde,
        traj.power_eq, traj.power_ineq, traj.power_ext, traj.event_pre.astype(int),
    ])


def ledger_columns(ledger) -> list[list]:
    """The `LEDGER_HEADER` columns of a list of switch events."""
    return [[float(ev.time) for ev in ledger], [ev.index for ev in ledger],
            [ev.kind for ev in ledger], [float(ev.storage_before) for ev in ledger],
            [float(ev.storage_after) for ev in ledger]]


def write_ledger_csv(ledger, path) -> None:
    write_csv(path, LEDGER_HEADER, ledger_columns(ledger))


def read_trajectory_csv(path) -> dict:
    """Read back the column blocks; returns arrays keyed like the writer.

    `sigma_mask` comes back as a list of Python ints (exact for any p) and
    `event_pre` as a bool array. A file without the columns and cells the
    writer produces (at least one row, finite numbers) raises ValueError.
    """
    with open(path, newline="") as fh:
        found = fh.readline().rstrip("\n").split(",")
    n, m, p = (sum(1 for c in found if c.startswith(s)) for s in ("x", "lam", "mu"))
    rows = read_csv(path, trajectory_header(n, m, p))
    i = 1 + n + m + p
    try:
        out = {"sigma_mask": [int(r[i]) for r in rows]}
        data = np.array([r[:i] + r[i + 1 : -1] for r in rows], dtype=float).reshape(-1, i + 6)
        if not rows or not np.isfinite(data).all():
            raise ValueError("no samples, or a value that is not finite")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    out["event_pre"] = np.array([r[-1] == "1" for r in rows], dtype=bool)
    out["t"] = data[:, 0]
    out["x"], out["lam"], out["mu"] = np.split(data[:, 1:i], [n, n + m], axis=1)
    out.update(zip(DERIVED_COLUMNS, data[:, i:].T))
    out["n"], out["m"], out["p"] = n, m, p
    return out


def read_ledger_csv(path) -> list:
    rows = read_csv(path, LEDGER_HEADER)
    try:
        return [SwitchEvent(time=float(t), index=int(i), kind=kind,
                            storage_before=float(s0), storage_after=float(s1))
                for t, i, kind, s0, s1 in rows]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
