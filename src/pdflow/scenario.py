"""Declarative scenario files: parsing, validation, and resolved manifests.

A scenario is a JSON document with exactly one of a `problem` section (raw
quadratic/affine data) or an `hvac` section (thermal network plus welfare
parameters plus tariff), a `dynamics` section (time constants, initial state,
integrator options), and an `outputs` section. `resolve_scenario` fills every
default and returns both the built objects and a canonical dict; writing that
dict back out produces a manifest that re-parses to the identical resolved
configuration. See scenarios/SCHEMA.md for field-by-field units.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .hvac import (
    ThermalNetwork,
    TouSchedule,
    WelfareParams,
    build_hvac_system,
    steady_state_constraint,
)
from .integrator import IntegratorOptions
from .interconnect import ComposedSystem, FullState, compose, full_state
from .problem import ConvexProblem, quadratic_problem

__all__ = ["Scenario", "ScenarioError", "load_scenario", "resolve_scenario",
           "scenario_to_dict", "apply_overrides"]

CERTIFICATE_NAMES = (
    "unforced-decrease",
    "composite-decrease",
    "switch-ledger",
    "hybrid-passivity",
    "quadratic-norm",
    "convergence",
)


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the offending path."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _get(section: dict, key: str, path: str, default=None, required=False):
    if key not in section:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    return section[key]


def _section(parent: dict, key: str, path: str, required=False) -> dict:
    """The object at parent[key]; {} when it is absent or null."""
    val = _get(parent, key, path, required=required)
    if not isinstance(val, dict | None):
        _fail(f"{path}.{key}", f"expected an object, got {val!r}")
    return val or {}


def _array(val, path: str) -> np.ndarray:
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError, OverflowError):
        _fail(path, f"expected numbers, got {val!r}")
    if not np.all(np.isfinite(arr)):
        _fail(path, f"expected finite numbers, got {val!r}")
    return arr


def _number(val, path: str) -> float:
    arr = _array(val, path)
    if arr.ndim:
        _fail(path, f"expected a number, got {val!r}")
    return float(arr)


def _floats(val, path: str) -> list:
    arr = np.atleast_1d(_array(val, path))
    if arr.ndim != 1:
        _fail(path, "expected a flat list of numbers")
    return [float(v) for v in arr]


def _matrix(val, path: str) -> list:
    arr = _array(val, path)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        _fail(path, "expected a nested list of numbers")
    return [[float(v) for v in row] for row in arr]


def _zone_floats(val, N: int, path: str) -> list:
    """N numbers; a single number stands for N copies of itself."""
    arr = _floats(val, path)
    if len(arr) == 1 and N != 1:
        arr = arr * N
    if len(arr) != N:
        _fail(path, f"expected {N} entries, got {len(arr)}")
    return arr


def _tau_list(val, size: int, path: str) -> list:
    if val is None:
        return [1.0] * size
    arr = _zone_floats(val, size, path)
    if any(v <= 0 for v in arr):
        _fail(path, "time constants must be positive")
    return arr


@dataclass(frozen=True)
class HvacBundle:
    network: ThermalNetwork
    params: WelfareParams
    tou: TouSchedule
    occupancy_peak: float
    solar_peak: float
    tau_T: list
    tau_q: float
    tau_lam: float
    tau_mu: list


@dataclass(frozen=True)
class Scenario:
    """Fully resolved configuration plus the systems built from it."""

    name: str
    kind: str
    resolved: dict
    problem: ConvexProblem
    composed: ComposedSystem
    initial: FullState
    opts: IntegratorOptions
    out_dir: str
    certificates: tuple
    hvac: HvacBundle | None = None


# `dynamics.integrator` defaults: IntegratorOptions' own, plus a horizon
INTEGRATOR_DEFAULTS = {f.name: 10.0 if f.name == "horizon" else f.default
                       for f in fields(IntegratorOptions)}


def _resolve_integrator(dyn: dict, outputs: dict, path: str) -> IntegratorOptions:
    integ = _section(dyn, "integrator", path)
    kwargs = {key: _number(integ.get(key, default), f"{path}.integrator.{key}")
              for key, default in INTEGRATOR_DEFAULTS.items()}
    if "stride" in outputs:
        kwargs["record_stride"] = _number(outputs["stride"], "outputs.stride")
    try:
        return IntegratorOptions(**kwargs)
    except ValueError as exc:
        _fail(f"{path}.integrator", str(exc))


def _resolve_certs(outputs: dict) -> tuple:
    certs = _get(outputs, "certificates", "outputs", default=["auto"])
    certs = [certs] if isinstance(certs, str) else certs
    if not isinstance(certs, list):
        _fail("outputs.certificates", f"expected a list of names, got {certs!r}")
    for c in certs:
        if c != "auto" and c not in CERTIFICATE_NAMES:
            _fail("outputs.certificates", f"unknown certificate {c!r}")
    return tuple(certs)


def resolve_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object")
    has_problem, has_hvac = "problem" in raw, "hvac" in raw
    if has_problem == has_hvac:
        raise ScenarioError("exactly one of 'problem' or 'hvac' sections is required")
    name = str(_get(raw, "name", "scenario", default="unnamed"))
    outputs = _section(raw, "outputs", "scenario")
    out_dir = str(_get(outputs, "dir", "outputs", default=f"out/{name}"))
    certificates = _resolve_certs(outputs)
    dyn = _section(raw, "dynamics", "scenario")
    opts = _resolve_integrator(dyn, outputs, "dynamics")

    if has_problem:
        return _resolve_problem_scenario(raw, name, dyn, opts, out_dir, certificates)
    return _resolve_hvac_scenario(raw, name, dyn, opts, out_dir, certificates)


def _resolve_problem_scenario(raw, name, dyn, opts, out_dir, certificates) -> Scenario:
    sec = _section(raw, "problem", "scenario")
    obj = _section(sec, "objective", "problem", required=True)
    H = _matrix(_get(obj, "H", "problem.objective", required=True), "problem.objective.H")
    c = _floats(_get(obj, "c", "problem.objective", required=True), "problem.objective.c")
    const = _number(obj.get("const", 0.0), "problem.objective.const")
    eq = _section(sec, "equality", "problem")
    A = _matrix(_get(eq, "A", "problem.equality", default=[]), "problem.equality.A")
    b = _floats(_get(eq, "b", "problem.equality", default=[]), "problem.equality.b") if eq else []
    iq = _section(sec, "inequality", "problem")
    G = _matrix(_get(iq, "G", "problem.inequality", default=[]), "problem.inequality.G")
    d = _floats(_get(iq, "d", "problem.inequality", default=[]), "problem.inequality.d") if iq else []
    try:
        problem = quadratic_problem(
            np.array(H), np.array(c), const,
            np.array(A) if A else None, np.array(b) if b else None,
            np.array(G) if G else None, np.array(d) if d else None,
        )
    except ValueError as exc:
        _fail("problem", str(exc))
    n, m, p = problem.n, problem.m, problem.p
    tau_x = _tau_list(_get(dyn, "tau_x", "dynamics"), n, "dynamics.tau_x")
    tau_lam = _tau_list(_get(dyn, "tau_lambda", "dynamics"), m, "dynamics.tau_lambda")
    tau_mu = _tau_list(_get(dyn, "tau_mu", "dynamics"), p, "dynamics.tau_mu")
    composed = compose(problem, np.array(tau_x), np.array(tau_lam), np.array(tau_mu))
    init = _section(dyn, "initial", "dynamics")
    x0 = _floats(_get(init, "x", "dynamics.initial", default=[0.0] * n), "dynamics.initial.x")
    lam0 = _floats(_get(init, "lambda", "dynamics.initial", default=[0.0] * m),
                   "dynamics.initial.lambda") if m else []
    mu0 = _floats(_get(init, "mu", "dynamics.initial", default=[0.0] * p),
                  "dynamics.initial.mu") if p else []
    if len(x0) != n:
        _fail("dynamics.initial.x", f"expected {n} entries, got {len(x0)}")
    if len(lam0) != m:
        _fail("dynamics.initial.lambda", f"expected {m} entries, got {len(lam0)}")
    if len(mu0) != p:
        _fail("dynamics.initial.mu", f"expected {p} entries, got {len(mu0)}")
    if any(v < 0 for v in mu0):
        _fail("dynamics.initial.mu", "multipliers must be nonnegative")
    initial = full_state(composed, np.array(x0), np.array(lam0), np.array(mu0))

    resolved = {
        "name": name,
        "problem": {
            "objective": {"H": H, "c": c, "const": const},
            "equality": {"A": A, "b": b},
            "inequality": {"G": G, "d": d},
        },
        "dynamics": {
            "tau_x": tau_x,
            "tau_lambda": tau_lam,
            "tau_mu": tau_mu,
            "initial": {"x": x0, "lambda": lam0, "mu": mu0},
            "integrator": asdict(opts),
        },
        "outputs": {"dir": out_dir, "certificates": list(certificates)},
    }
    return Scenario(name, "problem", resolved, problem, composed, initial, opts,
                    out_dir, certificates)


def _resolve_hvac_scenario(raw, name, dyn, opts, out_dir, certificates) -> Scenario:
    sec = _section(raw, "hvac", "scenario")
    netsec = _section(sec, "network", "hvac", required=True)
    R_amb = _floats(_get(netsec, "R_amb", "hvac.network", required=True), "hvac.network.R_amb")
    N = len(R_amb)
    rz_raw = _get(netsec, "R_zone", "hvac.network", default=0.0)
    if np.isscalar(rz_raw):
        rz = _number(rz_raw, "hvac.network.R_zone")
        R_zone = np.zeros((N, N))
        for i in range(N - 1):
            R_zone[i, i + 1] = R_zone[i + 1, i] = rz
        R_zone = R_zone.tolist()
    else:
        R_zone = _matrix(rz_raw, "hvac.network.R_zone")
    try:
        network = ThermalNetwork(
            C=np.array(_tau_list(_get(netsec, "C", "hvac.network"), N, "hvac.network.C")),
            R_zone=np.array(R_zone) if R_zone else np.zeros((N, N)),
            R_amb=np.array(R_amb),
            T_inf=_number(_get(netsec, "T_inf", "hvac.network", required=True),
                          "hvac.network.T_inf"),
            d=np.array(_floats(_get(netsec, "d", "hvac.network", required=True), "hvac.network.d")),
            theta=_number(_get(netsec, "theta", "hvac.network", required=True),
                          "hvac.network.theta"),
        )
    except ValueError as exc:
        _fail("hvac.network", str(exc))
    wsec = _section(sec, "welfare", "hvac", required=True)

    def wvec(key, default=None):
        required = default is None
        val = _get(wsec, key, "hvac.welfare", default=default, required=required)
        return np.array(_zone_floats(val, N, f"hvac.welfare.{key}"))

    try:
        params = WelfareParams(
            gamma=wvec("gamma", default=1.0),
            T_ref=wvec("T_ref"),
            b_util=wvec("b_util", default=0.0),
            rho=tuple(_floats(_get(wsec, "rho", "hvac.welfare", required=True),
                              "hvac.welfare.rho")),
            T_min=wvec("T_min"),
            T_max=wvec("T_max"),
        )
    except ValueError as exc:
        _fail("hvac.welfare", str(exc))
    tousec = (_section(sec, "tou", "hvac") if "tou" in sec
              else {"hours": [0.0, 24.0], "prices": [1.0]})
    try:
        tou = TouSchedule(
            hours=np.array(_floats(_get(tousec, "hours", "hvac.tou", required=True),
                                   "hvac.tou.hours")),
            prices=np.array(_floats(_get(tousec, "prices", "hvac.tou", required=True),
                                    "hvac.tou.prices")),
        )
    except ValueError as exc:
        _fail("hvac.tou", str(exc))
    loadsec = _section(sec, "loads", "hvac")
    occupancy_peak = _number(loadsec.get("occupancy_peak", 0.0), "hvac.loads.occupancy_peak")
    solar_peak = _number(loadsec.get("solar_peak", 0.0), "hvac.loads.solar_peak")

    tau_T = _tau_list(_get(dyn, "tau_T", "dynamics"), N, "dynamics.tau_T")
    tau_q = _number(dyn.get("tau_q", 1.0), "dynamics.tau_q")
    tau_lam = _number(dyn.get("tau_lambda", 1.0), "dynamics.tau_lambda")
    tau_mu = _tau_list(_get(dyn, "tau_mu", "dynamics"), 2 * N, "dynamics.tau_mu")
    if tau_q <= 0 or tau_lam <= 0:
        _fail("dynamics", "time constants must be positive")
    try:
        with np.errstate(over="raise", invalid="raise"):
            hsys = build_hvac_system(network, params, np.array(tau_T), tau_q, tau_lam,
                                     np.array(tau_mu))
    except FloatingPointError as exc:
        _fail("hvac.welfare", f"problem data overflow ({exc})")

    init = _section(dyn, "initial", "dynamics")
    T0 = _zone_floats(_get(init, "T", "dynamics.initial", default=params.T_ref.tolist()),
                      N, "dynamics.initial.T")
    A_row, b_val = steady_state_constraint(network)
    q_default = float(A_row[0] @ np.array(T0) + b_val)
    q0 = _number(init.get("q", q_default), "dynamics.initial.q")
    lam0 = _number(init.get("lambda", 0.0), "dynamics.initial.lambda")
    mu_low = _zone_floats(_get(init, "mu_low", "dynamics.initial", default=[0.0] * N),
                          N, "dynamics.initial.mu_low")
    mu_high = _zone_floats(_get(init, "mu_high", "dynamics.initial", default=[0.0] * N),
                           N, "dynamics.initial.mu_high")
    if any(v < 0 for v in mu_low + mu_high):
        _fail("dynamics.initial", "multipliers must be nonnegative")
    initial = full_state(
        hsys.composed,
        np.array(T0 + [q0]),
        np.array([lam0]),
        np.array(mu_low + mu_high),
    )
    resolved = {
        "name": name,
        "hvac": {
            "network": {
                "C": network.C.tolist(),
                "R_zone": network.R_zone.tolist(),
                "R_amb": network.R_amb.tolist(),
                "T_inf": network.T_inf,
                "d": network.d.tolist(),
                "theta": network.theta,
            },
            "welfare": {
                "gamma": params.gamma.tolist(),
                "T_ref": params.T_ref.tolist(),
                "b_util": params.b_util.tolist(),
                "rho": list(params.rho),
                "T_min": params.T_min.tolist(),
                "T_max": params.T_max.tolist(),
            },
            "tou": {"hours": tou.hours.tolist(), "prices": tou.prices.tolist()},
            "loads": {"occupancy_peak": occupancy_peak, "solar_peak": solar_peak},
        },
        "dynamics": {
            "tau_T": tau_T,
            "tau_q": tau_q,
            "tau_lambda": tau_lam,
            "tau_mu": tau_mu,
            "initial": {"T": T0, "q": q0, "lambda": lam0,
                        "mu_low": mu_low, "mu_high": mu_high},
            "integrator": asdict(opts),
        },
        "outputs": {"dir": out_dir, "certificates": list(certificates)},
    }
    bundle = HvacBundle(network, params, tou, occupancy_peak, solar_peak,
                        tau_T, tau_q, tau_lam, tau_mu)
    return Scenario(name, "hvac", resolved, hsys.problem, hsys.composed, initial,
                    opts, out_dir, certificates, hvac=bundle)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The resolved manifest; feeding it back to resolve_scenario is a no-op."""
    return scenario.resolved


def apply_overrides(raw: dict, horizon=None, dt_max=None, out_dir=None) -> dict:
    """Fold command-line overrides into a raw scenario dict (returns a copy)."""
    out = json.loads(json.dumps(raw))
    if not isinstance(out, dict):
        return out  # resolve_scenario reports it
    dyn = out["dynamics"] = _section(out, "dynamics", "scenario")
    integ = dyn["integrator"] = _section(dyn, "integrator", "dynamics")
    if horizon is not None:
        integ["horizon"] = float(horizon)
    if dt_max is not None:
        dt_init = integ.get("dt_init", INTEGRATOR_DEFAULTS["dt_init"])
        integ["dt_max"] = float(dt_max)
        integ["dt_init"] = min(float(dt_max), _number(dt_init, "dynamics.integrator.dt_init"))
    if out_dir is not None:
        out["outputs"] = _section(out, "outputs", "scenario")
        out["outputs"]["dir"] = str(out_dir)
    return out


def load_scenario(path, horizon=None, dt_max=None, out_dir=None) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    raw = apply_overrides(raw, horizon=horizon, dt_max=dt_max, out_dir=out_dir)
    return resolve_scenario(raw)
