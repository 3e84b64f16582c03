"""Declarative scenario files: parsing, validation, and resolved manifests.

A scenario is a JSON document with exactly one of a `problem` section (raw
quadratic/affine data) or an `hvac` section (thermal network plus welfare
parameters plus tariff), a `dynamics` section (time constants, initial state,
integrator options), and an `outputs` section. `resolve_scenario` reads each
field once, filling its default, and returns the built objects plus the record
of those reads; written out, that record is a manifest that re-parses to the
identical resolved configuration. See scenarios/SCHEMA.md for field units.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial

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
from .problem import ConvexProblem, quadratic_problem, sized

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


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError reported at `path`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


_REQUIRED = object()


class _Reader:
    """Reads the fields of one scenario object, each once.

    `raw` is the object ({} when null). `read(key, parse, default)` parses
    the field, or `default` when it is absent, reporting a bad value at its
    dotted path, and records the parsed value under `key`. The records nest
    like the sections, so the root's record is the resolved manifest.
    """

    def __init__(self, raw, path: str):
        if not isinstance(raw, dict | None):
            _fail(path, f"expected an object, got {raw!r}")
        self.raw, self.path, self.record = raw or {}, path, {}

    def read(self, key: str, parse, default=_REQUIRED):
        path = f"{self.path}.{key}" if self.path else key
        if key not in self.raw and default is _REQUIRED:
            _fail(path, "missing required field")
        self.record[key] = val = parse(self.raw.get(key, default), path)
        return val

    def section(self, key: str, default=None) -> "_Reader":
        sub = self.read(key, _Reader, default)
        self.record[key] = sub.record
        return sub


def _text(val, path: str) -> str:
    if not isinstance(val, str):
        _fail(path, f"expected a string, got {val!r}")
    return val


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


def _floats(val, path: str, size: int | None = None) -> list:
    """A flat list of numbers; given `size`, expanded to it by `problem.sized`."""
    arr = _array(val, path)
    try:
        return sized(arr, arr.size if size is None else size, path).tolist()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _matrix(val, path: str) -> list:
    arr = _array(val, path)
    if arr.size == 0:
        return []
    if arr.ndim != 2:
        _fail(path, "expected a nested list of numbers")
    return [[float(v) for v in row] for row in arr]


def _positive(val, path: str, size: int) -> list:
    """`size` positive numbers (time constants, capacitances); null means 1.0."""
    out = _floats(1.0 if val is None else val, path, size)
    if any(v <= 0 for v in out):
        _fail(path, "expected positive numbers")
    return out


def _initial(val, path: str, size: int, nonnegative: bool = False) -> list:
    """Exactly `size` initial values; a field of size 0 is not read."""
    out = _floats(val, path) if size else []
    if len(out) != size:
        _fail(path, f"expected {size} entries, got {len(out)}")
    if nonnegative and any(v < 0 for v in out):
        _fail(path, "multipliers must be nonnegative")
    return out


def _resistances(val, path: str, size: int) -> list:
    """R_zone: a full matrix ([] = uncoupled), or a scalar applied between
    adjacent zones."""
    if not np.isscalar(val):
        return _matrix(val, path) or [[0.0] * size for _ in range(size)]
    rz = _number(val, path)
    return [[rz if abs(i - j) == 1 else 0.0 for j in range(size)] for i in range(size)]


def _certificates(val, path: str) -> list:
    certs = [val] if isinstance(val, str) else val
    if not isinstance(certs, list):
        _fail(path, f"expected a list of names, got {val!r}")
    for c in certs:
        if c != "auto" and c not in CERTIFICATE_NAMES:
            _fail(path, f"unknown certificate {c!r}")
    return list(certs)


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


def resolve_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object")
    has_problem, has_hvac = "problem" in raw, "hvac" in raw
    if has_problem == has_hvac:
        raise ScenarioError("exactly one of 'problem' or 'hvac' sections is required")
    root = _Reader(raw, "")
    name = root.read("name", _text, "unnamed")
    outputs = root.section("outputs")
    out_dir = outputs.read("dir", _text, f"out/{name}")
    certificates = tuple(outputs.read("certificates", _certificates, ["auto"]))
    dyn = root.section("dynamics")
    integ = dyn.section("integrator")
    kwargs = {key: integ.read(key, _number, default)
              for key, default in INTEGRATOR_DEFAULTS.items()}
    if "stride" in outputs.raw:  # an alias, recorded as record_stride only
        kwargs["record_stride"] = integ.record["record_stride"] = _number(
            outputs.raw["stride"], "outputs.stride")
    opts = _build("dynamics.integrator", IntegratorOptions, **kwargs)
    kind = "problem" if has_problem else "hvac"
    resolve = _resolve_problem if has_problem else _resolve_hvac
    problem, composed, initial, bundle = resolve(root.section(kind), dyn)
    return Scenario(name, kind, root.record, problem, composed, initial, opts,
                    out_dir, certificates, hvac=bundle)


def _resolve_problem(sec: _Reader, dyn: _Reader):
    obj = sec.section("objective", _REQUIRED)
    H, c = obj.read("H", _matrix), obj.read("c", _floats)
    const = obj.read("const", _number, 0.0)
    eq = sec.section("equality")
    A, b = eq.read("A", _matrix, []), eq.read("b", _floats, [])
    iq = sec.section("inequality")
    G, d = iq.read("G", _matrix, []), iq.read("d", _floats, [])
    problem = _build("problem", quadratic_problem, H, c, const,
                     A or None, b or None, G or None, d or None)
    n, m, p = problem.n, problem.m, problem.p
    tau_x = dyn.read("tau_x", partial(_positive, size=n), None)
    tau_lam = dyn.read("tau_lambda", partial(_positive, size=m), None)
    tau_mu = dyn.read("tau_mu", partial(_positive, size=p), None)
    composed = compose(problem, np.array(tau_x), np.array(tau_lam), np.array(tau_mu))
    init = dyn.section("initial")
    x0 = init.read("x", partial(_initial, size=n), [0.0] * n)
    lam0 = init.read("lambda", partial(_initial, size=m), [0.0] * m)
    mu0 = init.read("mu", partial(_initial, size=p, nonnegative=True), [0.0] * p)
    initial = full_state(composed, np.array(x0), np.array(lam0), np.array(mu0))
    return problem, composed, initial, None


def _resolve_hvac(sec: _Reader, dyn: _Reader):
    net = sec.section("network", _REQUIRED)
    R_amb = net.read("R_amb", _floats)
    if not R_amb:
        _fail("hvac.network.R_amb", "expected at least one zone")
    N = len(R_amb)
    zones = partial(_floats, size=N)
    network = _build("hvac.network", ThermalNetwork,
                     R_zone=net.read("R_zone", partial(_resistances, size=N), 0.0),
                     C=net.read("C", partial(_positive, size=N), None),
                     R_amb=R_amb, T_inf=net.read("T_inf", _number),
                     d=net.read("d", zones), theta=net.read("theta", _number))
    wel = sec.section("welfare", _REQUIRED)
    params = _build("hvac.welfare", WelfareParams,
                    gamma=wel.read("gamma", zones, 1.0), T_ref=wel.read("T_ref", zones),
                    b_util=wel.read("b_util", zones, 0.0), rho=wel.read("rho", _floats),
                    T_min=wel.read("T_min", zones), T_max=wel.read("T_max", zones))
    tou_sec = sec.section("tou", {"hours": [0.0, 24.0], "prices": [1.0]})
    tou = _build("hvac.tou", TouSchedule, hours=tou_sec.read("hours", _floats),
                 prices=tou_sec.read("prices", _floats))
    loads = sec.section("loads")
    occupancy_peak = loads.read("occupancy_peak", _number, 0.0)
    solar_peak = loads.read("solar_peak", _number, 0.0)

    tau_T = dyn.read("tau_T", partial(_positive, size=N), None)
    tau_q = dyn.read("tau_q", _number, 1.0)
    tau_lam = dyn.read("tau_lambda", _number, 1.0)
    tau_mu = dyn.read("tau_mu", partial(_positive, size=2 * N), None)
    if tau_q <= 0 or tau_lam <= 0:
        _fail("dynamics", "time constants must be positive")
    try:
        with np.errstate(over="raise", invalid="raise"):
            A_row, b_val = _build("hvac.network", steady_state_constraint, network)
            hsys = build_hvac_system(network, params, np.array(tau_T), tau_q, tau_lam,
                                     np.array(tau_mu))
    except FloatingPointError as exc:
        _fail("hvac.welfare", f"problem data overflow ({exc})")

    init = dyn.section("initial")
    T0 = init.read("T", zones, params.T_ref.tolist())
    q0 = init.read("q", _number, float(A_row[0] @ np.array(T0) + b_val))
    lam0 = init.read("lambda", _number, 0.0)
    mu_low = init.read("mu_low", zones, 0.0)
    mu_high = init.read("mu_high", zones, 0.0)
    if any(v < 0 for v in mu_low + mu_high):
        _fail("dynamics.initial", "multipliers must be nonnegative")
    initial = full_state(hsys.composed, np.array(T0 + [q0]), np.array([lam0]),
                         np.array(mu_low + mu_high))
    bundle = HvacBundle(network, params, tou, occupancy_peak, solar_peak,
                        tau_T, tau_q, tau_lam, tau_mu)
    return hsys.problem, hsys.composed, initial, bundle


def scenario_to_dict(scenario: Scenario) -> dict:
    """The resolved manifest; feeding it back to resolve_scenario is a no-op."""
    return scenario.resolved


def apply_overrides(raw: dict, horizon=None, dt_max=None, out_dir=None) -> dict:
    """Fold command-line overrides into a raw scenario dict (returns a copy)."""
    out = json.loads(json.dumps(raw))
    if not isinstance(out, dict):
        return out  # resolve_scenario reports it
    dyn = out["dynamics"] = _Reader(out.get("dynamics"), "dynamics").raw
    integ = dyn["integrator"] = _Reader(dyn.get("integrator"), "dynamics.integrator").raw
    if horizon is not None:
        integ["horizon"] = float(horizon)
    if dt_max is not None:
        dt_init = integ.get("dt_init", INTEGRATOR_DEFAULTS["dt_init"])
        integ["dt_max"] = float(dt_max)
        integ["dt_init"] = min(float(dt_max), _number(dt_init, "dynamics.integrator.dt_init"))
    if out_dir is not None:
        out["outputs"] = _Reader(out.get("outputs"), "outputs").raw
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
