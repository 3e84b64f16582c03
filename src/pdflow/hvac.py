"""Building energy management case study: RC network, welfare problem, TOU runs.

A multi-zone building is abstracted as a resistance-capacitance network whose
steady state ties zone temperatures to the aggregate supply q: summing the
zone heat balances makes the inter-zone terms cancel pairwise, leaving a
single affine constraint

    sum_i theta * ((T_inf - T_i)/R_i0 + d_i) = q.

The welfare problem trades zone comfort against generation cost,

    minimize  rho1 q^2 + rho2 q + rho3 - sum_i (b_i - gamma_i (T_i - T_ref_i)^2)
    s.t.      A T + b - q = 0,    T_min <= T <= T_max,

over the primal variable (T_1..T_N, q). Its primal-dual gradient dynamics are
exactly the composed flow of the generic machinery; this module only builds
the problem and orchestrates time-of-use price scenarios. Units: temperatures
degC, resistances degC/kW, heat gains kW, prices currency/kWh, taus seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .integrator import IntegratorOptions, Trajectory, concat_trajectories, simulate
from .interconnect import ComposedSystem, FullState, compose, full_state
from .monitor import CertificateReport, check_convergence
from .problem import ConvexProblem, KktPoint, active_set_oracle, quadratic_problem

__all__ = [
    "ThermalNetwork",
    "WelfareParams",
    "TouSchedule",
    "HvacSystem",
    "IntervalResult",
    "DayResult",
    "IntervalConvergenceError",
    "steady_state_constraint",
    "zone_cooling_loads",
    "build_welfare_problem",
    "build_hvac_system",
    "synth_internal_load",
    "run_tou_scenario",
]


class IntervalConvergenceError(RuntimeError):
    """A pricing interval did not settle to its oracle optimum."""

    def __init__(self, index: int, report: CertificateReport):
        super().__init__(f"interval {index} failed convergence: {report.details}")
        self.index = index
        self.report = report


def _zone_vec(val, N: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(val, dtype=float))
    if arr.size == 1 and N > 1:
        arr = np.full(N, float(arr[0]))
    if arr.size != N:
        raise ValueError(f"{name} needs {N} entries, got {arr.size}")
    return arr


@dataclass(frozen=True)
class ThermalNetwork:
    """RC abstraction of an N-zone building; only its steady state is used."""

    C: np.ndarray        # thermal capacitances, transient context only
    R_zone: np.ndarray   # symmetric inter-zone resistances, 0 = no coupling
    R_amb: np.ndarray    # zone-to-ambient resistances
    T_inf: float         # ambient temperature
    d: np.ndarray        # heat gains (occupancy, solar, ...)
    theta: float         # consumption-to-demand conversion factor

    def __post_init__(self):
        R_amb = np.atleast_1d(np.asarray(self.R_amb, dtype=float))
        N = R_amb.size
        C = _zone_vec(self.C, N, "C")
        d = _zone_vec(self.d, N, "d")
        R_zone = np.asarray(self.R_zone, dtype=float)
        if R_zone.size == 0:
            R_zone = np.zeros((N, N))
        if R_zone.shape != (N, N):
            raise ValueError(f"R_zone must be {N}x{N}")
        if not np.allclose(R_zone, R_zone.T):
            raise ValueError("R_zone must be symmetric")
        if np.any(R_amb <= 0):
            raise ValueError("R_amb entries must be positive")
        if np.any(R_zone < 0):
            raise ValueError("R_zone entries must be nonnegative")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "R_zone", R_zone)
        object.__setattr__(self, "R_amb", R_amb)
        object.__setattr__(self, "T_inf", float(self.T_inf))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def N(self) -> int:
        return self.R_amb.size


@dataclass(frozen=True)
class WelfareParams:
    """Comfort weights, reference temperatures, and generation-cost coefficients."""

    gamma: np.ndarray
    T_ref: np.ndarray
    b_util: np.ndarray
    rho: tuple
    T_min: np.ndarray
    T_max: np.ndarray

    def __post_init__(self):
        N = np.atleast_1d(np.asarray(self.T_ref, dtype=float)).size
        gamma = _zone_vec(self.gamma, N, "gamma")
        T_ref = _zone_vec(self.T_ref, N, "T_ref")
        b_util = _zone_vec(self.b_util, N, "b_util")
        T_min = _zone_vec(self.T_min, N, "T_min")
        T_max = _zone_vec(self.T_max, N, "T_max")
        rho = tuple(float(r) for r in self.rho)
        if len(rho) != 3:
            raise ValueError("rho must have three coefficients")
        if rho[0] <= 0:
            raise ValueError("rho[0] must be positive")
        if np.any(gamma <= 0):
            raise ValueError("gamma must be positive")
        if np.any(T_min >= T_max):
            raise ValueError("need T_min < T_max componentwise")
        for name, val in [
            ("gamma", gamma), ("T_ref", T_ref), ("b_util", b_util),
            ("T_min", T_min), ("T_max", T_max),
        ]:
            object.__setattr__(self, name, val)
        object.__setattr__(self, "rho", rho)

    @property
    def N(self) -> int:
        return self.T_ref.size

    def broadcast(self, N: int) -> "WelfareParams":
        """Expand shared scalar settings to N zones (per-zone values pass through)."""
        if self.N == N:
            return self
        if self.N != 1:
            raise ValueError(f"cannot broadcast {self.N}-zone parameters to {N} zones")
        return WelfareParams(
            gamma=np.full(N, self.gamma[0]),
            T_ref=np.full(N, self.T_ref[0]),
            b_util=np.full(N, self.b_util[0]),
            rho=self.rho,
            T_min=np.full(N, self.T_min[0]),
            T_max=np.full(N, self.T_max[0]),
        )


@dataclass(frozen=True)
class TouSchedule:
    """Piecewise-constant daily tariff: K intervals given by K+1 hour edges."""

    hours: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        hours = np.atleast_1d(np.asarray(self.hours, dtype=float))
        prices = np.atleast_1d(np.asarray(self.prices, dtype=float))
        if hours.size != prices.size + 1:
            raise ValueError("need one more hour edge than price levels")
        if np.any(np.diff(hours) <= 0):
            raise ValueError("hour edges must be strictly increasing")
        if hours[0] != 0.0 or hours[-1] != 24.0:
            raise ValueError("schedule must cover [0, 24] hours without gaps")
        if np.any(prices < 0):
            raise ValueError("prices must be nonnegative")
        object.__setattr__(self, "hours", hours)
        object.__setattr__(self, "prices", prices)

    def price_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.hours, t, side="right")) - 1
        return float(self.prices[min(max(idx, 0), self.prices.size - 1)])

    def intervals(self):
        return [
            (float(self.hours[k]), float(self.hours[k + 1]), float(self.prices[k]))
            for k in range(self.prices.size)
        ]


def steady_state_constraint(net: ThermalNetwork) -> tuple[np.ndarray, float]:
    """Scalar affine supply balance A T + b = q.

    Inter-zone resistances cancel pairwise in the building-wide sum, so
    A_i = -theta / R_i0 and b = theta * sum_i (T_inf / R_i0 + d_i).
    """
    A = (-net.theta / net.R_amb).reshape(1, net.N)
    b = net.theta * float(np.sum(net.T_inf / net.R_amb + net.d))
    return A, b


def zone_cooling_loads(net: ThermalNetwork, T) -> np.ndarray:
    """Per-zone steady-state cooling load (kW removed) at temperatures T.

    load_i = sum_j (T_j - T_i)/R_ij + (T_inf - T_i)/R_i0 + d_i; inter-zone
    terms cancel in the sum, so the aggregate always equals q / theta.
    """
    T = np.atleast_1d(np.asarray(T, dtype=float))
    loads = (net.T_inf - T) / net.R_amb + net.d
    for i in range(net.N):
        for j in range(net.N):
            if i != j and net.R_zone[i, j] > 0:
                loads[i] += (T[j] - T[i]) / net.R_zone[i, j]
    return loads


def build_welfare_problem(net: ThermalNetwork, params: WelfareParams) -> ConvexProblem:
    """Quadratic welfare objective over (T, q) with comfort-bound inequalities.

    Inequality ordering: lower bounds T_min - T <= 0 for zones 0..N-1 first,
    then upper bounds T - T_max <= 0 in the same zone order.
    """
    params = params.broadcast(net.N)
    N = net.N
    rho1, rho2, rho3 = params.rho
    H = np.diag(np.concatenate([2.0 * params.gamma, [2.0 * rho1]]))
    c = np.concatenate([-2.0 * params.gamma * params.T_ref, [rho2]])
    const = float(np.sum(params.gamma * params.T_ref**2) - np.sum(params.b_util) + rho3)
    A_row, b_val = steady_state_constraint(net)
    A_eq = np.concatenate([A_row, [[-1.0]]], axis=1)
    b_eq = np.array([b_val])
    G = np.zeros((2 * N, N + 1))
    d = np.zeros(2 * N)
    for i in range(N):
        G[i, i] = -1.0
        d[i] = params.T_min[i]
        G[N + i, i] = 1.0
        d[N + i] = -params.T_max[i]
    return quadratic_problem(H, c, const, A_eq, b_eq, G, d)


@dataclass(frozen=True)
class HvacSystem:
    """Welfare problem plus time constants, ready to simulate."""

    network: ThermalNetwork
    params: WelfareParams
    problem: ConvexProblem
    composed: ComposedSystem
    tau_T: np.ndarray
    tau_q: float
    tau_lam: float
    tau_mu: np.ndarray

    @property
    def N(self) -> int:
        return self.network.N


def build_hvac_system(
    net: ThermalNetwork,
    params: WelfareParams,
    tau_T=1.0,
    tau_q: float = 1.0,
    tau_lam: float = 1.0,
    tau_mu=1.0,
) -> HvacSystem:
    N = net.N
    params = params.broadcast(N)
    tau_T = _zone_vec(tau_T, N, "tau_T")
    tau_mu = _zone_vec(tau_mu, 2 * N, "tau_mu") if np.size(tau_mu) > 1 else np.full(
        2 * N, float(np.atleast_1d(tau_mu)[0])
    )
    problem = build_welfare_problem(net, params)
    composed = compose(
        problem,
        tau_x=np.concatenate([tau_T, [float(tau_q)]]),
        tau_lam=np.array([float(tau_lam)]),
        tau_mu=tau_mu,
    )
    return HvacSystem(net, params, problem, composed, tau_T, float(tau_q), float(tau_lam), tau_mu)


def _smooth01(s: float) -> float:
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return 0.5 * (1.0 - np.cos(np.pi * s))


def synth_internal_load(t: float, occupancy_peak: float, solar_peak: float, base_d) -> np.ndarray:
    """Deterministic synthetic heat-gain profile at hour t in [0, 24).

    Occupancy: smooth plateau over working hours (8..18 with 1.5 h ramps).
    Solar: half-sine between 6 and 18, peaking at solar noon. The building
    total is split evenly across zones and added to the static base gains.
    """
    base = np.atleast_1d(np.asarray(base_d, dtype=float))
    occ = occupancy_peak * _smooth01((t - 8.0) / 1.5) * _smooth01((18.0 - t) / 1.5)
    sol = solar_peak * np.sin(np.pi * (t - 6.0) / 12.0) if 6.0 <= t <= 18.0 else 0.0
    return base + (occ + max(sol, 0.0)) / base.size


@dataclass(frozen=True)
class IntervalResult:
    start_hour: float
    end_hour: float
    price: float
    q_star: float
    T_star: np.ndarray
    cooling_load: float  # aggregate over zones, = q_star / theta
    objective: float
    settling_time: float | None
    oracle: KktPoint
    trajectory: Trajectory
    convergence: CertificateReport


@dataclass(frozen=True)
class DayResult:
    intervals: list

    @property
    def peak_q(self) -> float:
        return max(iv.q_star for iv in self.intervals)


def run_tou_scenario(
    net: ThermalNetwork,
    params: WelfareParams,
    schedule: TouSchedule,
    loads=None,
    *,
    tau_T=1.0,
    tau_q: float = 1.0,
    tau_lam: float = 1.0,
    tau_mu=1.0,
    opts: IntegratorOptions | None = None,
    initial: FullState | None = None,
    settle_tau_multiple: float = 50.0,
) -> DayResult:
    """Quasi-static day run: one settled simulation per pricing interval.

    Each interval rebuilds the welfare problem with the generation cost scaled
    by the interval price (rho1, rho2 multiplied by price) and the heat gains
    evaluated at the interval midpoint, warm-starting from the previous
    interval's terminal state. The base horizon is min(interval length,
    settle_tau_multiple time constants); while the convergence check comes
    back inconclusive the run is extended from its terminal state (up to
    three times) until it passes. An interval that still fails aborts the
    run with the interval index.
    """
    params = params.broadcast(net.N)
    rho0 = params.rho
    results = []
    state = initial
    for idx, (h0, h1, price) in enumerate(schedule.intervals()):
        d_mid = loads(0.5 * (h0 + h1)) if loads is not None else net.d
        net_i = replace(net, d=d_mid)
        params_i = replace(params, rho=(price * rho0[0], price * rho0[1], rho0[2]))
        sys_i = build_hvac_system(net_i, params_i, tau_T, tau_q, tau_lam, tau_mu)
        oracle = active_set_oracle(sys_i.problem)
        tau_top = max(
            float(np.max(sys_i.tau_T)), sys_i.tau_q, sys_i.tau_lam,
            float(np.max(sys_i.tau_mu)),
        )
        horizon = min((h1 - h0) * 3600.0, settle_tau_multiple * tau_top)
        base_opts = opts or IntegratorOptions(horizon=horizon)
        opts_i = replace(base_opts, horizon=horizon)
        if state is None:
            T0 = params.T_ref.copy()
            q0 = float(sys_i.problem.equality.A[0, :net.N] @ T0 + sys_i.problem.equality.b[0])
            state = full_state(sys_i.composed, np.concatenate([T0, [q0]]))
        else:
            state = full_state(sys_i.composed, state.x, state.lam, state.mu)
        traj = simulate(sys_i.composed, state, opts_i)
        report = check_convergence(traj, oracle)
        extensions = 0
        while not report.passed and report.status == "inconclusive" and extensions < 3:
            tail_state = full_state(sys_i.composed, traj.x[-1], traj.lam[-1], traj.mu[-1])
            tail = simulate(sys_i.composed, tail_state, opts_i)
            traj = concat_trajectories(traj, tail)
            report = check_convergence(traj, oracle)
            extensions += 1
        if not report.passed:
            raise IntervalConvergenceError(idx, report)
        end = traj.final_state
        results.append(
            IntervalResult(
                start_hour=h0,
                end_hour=h1,
                price=price,
                q_star=float(end.x[-1]),
                T_star=end.x[:-1].copy(),
                cooling_load=float(np.sum(zone_cooling_loads(net_i, end.x[:-1]))),
                objective=sys_i.problem.objective.value(end.x),
                settling_time=report.details.get("settling_time"),
                oracle=oracle,
                trajectory=traj,
                convergence=report,
            )
        )
        state = end
    return DayResult(results)
