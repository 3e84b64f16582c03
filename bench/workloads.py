"""The four workloads: how each makes its inputs, runs one op, checks it.

A workload's `setup(pd, seed)` makes its inputs from the seed and builds
what the program needs before its first op; `references(inputs)` computes,
apart from the program, what the outputs are checked against; `round(...)`
lists the ops of one round. Every op is a closed loop: the next starts when
the previous one has returned. An op's `check` returns "ok", "failed" (a
known fault of the program, counted in `failed`) or an error message, which
makes the run incorrect.

`pd` is a namespace of pdflow's modules. Ops call the program through
module attributes (`pd.integrator.simulate`, `pd.cli.main`, ...) so that the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checkers import (internal_load, kkt_ok, qp_optimum, settle_rate, welfare_bisection,
                      welfare_qp)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
OUT = Path(__file__).resolve().parent / "out"

HP = "hybrid-passivity"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]


# -- random QPs and QCQPs -----------------------------------------------------

# The acceptance batch: 200 draws from seed 2026. These instances fail
# hybrid-passivity at record stride 2.0 although their runs are correct
# (the certificate's budget ignores trapezoid error); they run in every
# qp-batch round and count as failed ops until that fault is mended.
ACCEPTANCE_SEED = 2026
ACCEPTANCE_SIZE = 200
HP_FAULT_INSTANCES = (26, 37, 43, 50, 55, 69, 106, 195)

BATCH_HORIZON, BATCH_DT_MAX, BATCH_STRIDE, BATCH_RTOL = 80.0, 0.2, 2.0, 1e-9
SETTLE_X, SETTLE_KKT, MAX_EXTENSIONS = 1e-4, 1e-6, 3

# Seeded draws are kept only if the flow linearized at their optimum decays
# at >= 0.1 /s and every inequality is strictly complementary by >= 0.01:
# slower instances need more than the four 80 s runs an op allows (the
# slowest acceptance instance decays at 0.064 /s). About 3% of QP draws and
# a quarter of QCQP draws are redrawn.
MIN_SETTLE_RATE, MIN_MARGIN = 0.1, 1e-2


def draw_qp(rng, shape=None) -> dict:
    """One draw of the acceptance distribution: n <= 5, m <= 2, p <= 4.

    `shape` fixes (n, m, p); without it they are drawn first. Hessian eigenvalues in [0.5, 5], unit-norm inequality rows, equalities
    and inequalities anchored at one interior point with slack in [0.2, 1];
    the start is the anchor plus U(-1, 1) noise, mu0 ~ U(0, 1).
    """
    if shape is None:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, min(2, n) + 1))
        p = int(rng.integers(0, 5))
    else:
        n, m, p = shape
    eigs = rng.uniform(0.5, 5.0, n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = Q @ np.diag(eigs) @ Q.T
    H = 0.5 * (H + H.T)
    c = rng.uniform(-2.0, 2.0, n)
    anchor = rng.uniform(-1.0, 1.0, n)
    A = b = G = d = None
    if m:
        A, _ = np.linalg.qr(rng.normal(size=(m, n)).T)
        A = A.T[:m]
        b = -(A @ anchor)
    if p:
        G = rng.normal(size=(p, n))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        d = -(G @ anchor) - rng.uniform(0.2, 1.0, p)
    x0 = anchor + rng.uniform(-1.0, 1.0, n)
    mu0 = rng.uniform(0.0, 1.0, p)
    return {"n": n, "m": m, "p": p, "H": H, "c": c, "A": A, "b": b, "G": G, "d": d,
            "x0": x0, "mu0": mu0}


def with_optimum(inst: dict) -> dict:
    """The instance with its optimum, planted or solved by the checkers."""
    if "x_star" not in inst:
        inst["x_star"], inst["lam_star"], inst["mu_star"] = qp_optimum(inst)
    return inst


def settles(inst) -> bool:
    """Strictly complementary optimum at which the linearized flow decays fast."""
    x, mu = inst["x_star"], inst["mu_star"]
    jac = [inst["A"]] if inst["m"] else []
    hess = inst["H"]
    if "quad" in inst:
        g = np.array([0.5 * x @ P @ x + q @ x + r for P, q, r in inst["quad"]])
        grads = np.array([P @ x + q for P, q, _ in inst["quad"]])
        hess = hess + sum(mu_i * P for mu_i, (P, _, _) in zip(mu, inst["quad"]))
    else:
        g = inst["G"] @ x + inst["d"] if inst["p"] else np.zeros(0)
        grads = inst["G"] if inst["p"] else np.zeros((0, inst["n"]))
    if np.any(np.maximum(mu, -g) < MIN_MARGIN):
        return False
    jac.append(grads[mu > 0])
    return settle_rate(hess, np.vstack(jac)) >= MIN_SETTLE_RATE


def seeded_draws(rng, draw, shapes) -> list:
    """One draw per shape, each redrawn until it `settles`."""
    out = []
    for shape in shapes:
        for _ in range(1000):
            inst = with_optimum(draw(rng, shape))
            if settles(inst):
                out.append(inst)
                break
        else:
            raise RuntimeError(f"no draw of shape {shape} settles in 1000 tries")
    return out


def draw_qcqp(rng, shape) -> dict:
    """A convex QCQP with a planted, strictly complementary KKT point.

    `shape` is (n, m, p, k): m orthonormal equality rows and p quadratic
    inequalities g_i(x) = 0.5 (x-x*)'P_i(x-x*) + w_i'(x-x*) + s_i with P_i
    eigenvalues in [0.2, 2] and |w_i| in [0.5, 1.5], of which the first k
    are active at x* (s_i = 0, mu*_i ~ U(0.5, 2)) and the others slack
    (s_i ~ -U(0.2, 1), mu*_i = 0). The objective's Hessian is drawn as in
    `draw_qp` and its linear term set so that (x*, lam*, mu*) satisfies
    stationarity, which makes x* the unique optimum. Needs k <= n - m.
    """
    n, m, p, n_active = shape
    eigs = rng.uniform(0.5, 5.0, n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = Q @ np.diag(eigs) @ Q.T
    H = 0.5 * (H + H.T)
    x_star = rng.uniform(-1.0, 1.0, n)
    lam_star = rng.uniform(-1.0, 1.0, m)
    A = b = None
    grad = H @ x_star
    if m:
        A, _ = np.linalg.qr(rng.normal(size=(m, n)).T)
        A = A.T[:m]
        b = -(A @ x_star)
        grad = grad + A.T @ lam_star
    mu_star = np.zeros(p)
    quad = []
    for i in range(p):
        Qi, _ = np.linalg.qr(rng.normal(size=(n, n)))
        P = Qi @ np.diag(rng.uniform(0.2, 2.0, n)) @ Qi.T
        P = 0.5 * (P + P.T)
        w = rng.normal(size=n)
        w *= rng.uniform(0.5, 1.5) / np.linalg.norm(w)
        if i < n_active:
            s = 0.0
            mu_star[i] = rng.uniform(0.5, 2.0)
        else:
            s = -rng.uniform(0.2, 1.0)
        q = w - P @ x_star
        r = 0.5 * x_star @ P @ x_star - w @ x_star + s
        quad.append((P, q, float(r)))
        grad = grad + mu_star[i] * w
    x0 = x_star + rng.uniform(-1.0, 1.0, n)
    mu0 = rng.uniform(0.0, 1.0, p)
    return {"n": n, "m": m, "p": p, "k": n_active, "H": H, "c": -grad, "A": A, "b": b, "quad": quad,
            "x0": x0, "mu0": mu0, "x_star": x_star, "lam_star": lam_star, "mu_star": mu_star}


def _batch_opts(pd):
    return pd.integrator.IntegratorOptions(
        horizon=BATCH_HORIZON, dt_max=BATCH_DT_MAX, record_stride=BATCH_STRIDE,
        rtol=BATCH_RTOL)


def _settle(pd, sys_, problem, traj, opts, oracle=None):
    """Extend a run from its end, up to three times, until it has settled.

    Settled: terminal KKT defect <= 1e-6 and, given an oracle point,
    terminal |x - x*| <= 1e-4 (the acceptance batch's rule).
    """
    for _ in range(MAX_EXTENSIONS):
        end = traj.final_state
        point = pd.problem.KktPoint(end.x, end.lam, end.mu)
        defect = pd.problem.kkt_residual(problem, point).max_defect
        x_err = 0.0 if oracle is None else float(np.max(np.abs(end.x - oracle.x)))
        if defect <= SETTLE_KKT and x_err <= SETTLE_X:
            break
        tail = pd.integrator.simulate(
            sys_, pd.interconnect.full_state(sys_, end.x, end.lam, end.mu), opts)
        traj = pd.integrator.concat_trajectories(traj, tail)
    return traj


def _solve(pd, inst, problem, with_oracle: bool):
    """Compose, simulate, settle, and run the certificate battery."""
    sys_ = pd.interconnect.compose(
        problem, np.ones(problem.n), np.ones(problem.m), np.ones(problem.p))
    opts = _batch_opts(pd)
    start = pd.interconnect.full_state(sys_, inst["x0"], np.zeros(problem.m), inst["mu0"])
    traj = pd.integrator.simulate(sys_, start, opts)
    oracle = pd.problem.active_set_oracle(problem) if with_oracle else None
    traj = _settle(pd, sys_, problem, traj, opts, oracle)
    reports = pd.monitor.run_certificates(traj, oracle=oracle)
    end = traj.final_state
    failing = sorted({r.name for r in reports if r.applicable and not r.passed})
    return end.x.copy(), end.lam.copy(), end.mu.copy(), failing


def _verdict(inst, out, notes: Counter, tag: str, fault_expected: bool) -> str:
    x, lam, mu, failing = out
    ok, res = kkt_ok(inst, x, lam, mu)
    if not ok:
        return f"KKT residuals {res}"
    if float(np.max(np.abs(x - inst["x_star"]))) > SETTLE_X:
        return f"terminal x off the optimum by more than {SETTLE_X}"
    others = [name for name in failing if name != HP]
    if others:
        return f"certificates failed: {others}"
    if HP in failing:
        if fault_expected:
            return "failed"
        # Seed-dependent instances of the same fault: reported, not counted,
        # so that the failed share of a run does not depend on the seed.
        notes[f"{tag}: {HP} FAIL on a seeded instance (quadrature fault at stride {BATCH_STRIDE})"] += 1
    return "ok"


class QpBatch:
    name = "qp-batch"
    # One seeded instance of every (m, p) the acceptance distribution allows
    # for n = 1, 3, 5 (40 shapes): fixing the shapes keeps the round's cost
    # from moving with the seed, since m and p set most of an op's cost.
    SHAPES = [(n, m, p) for n in (1, 3, 5) for m in range(min(2, n) + 1) for p in range(5)]

    def setup(self, pd, seed):
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        acceptance = [draw_qp(rng) for _ in range(ACCEPTANCE_SIZE)]
        fixed = [dict(with_optimum(acceptance[k]), fault=True) for k in HP_FAULT_INSTANCES]
        rng = np.random.default_rng([seed, 1])
        seeded = [dict(inst, fault=False) for inst in seeded_draws(rng, draw_qp, self.SHAPES)]
        return fixed + seeded

    def references(self, inputs):
        return None

    def _op(self, pd, inst, notes):
        def run():
            problem = pd.problem.quadratic_problem(
                inst["H"], inst["c"], 0.0, inst["A"], inst["b"], inst["G"], inst["d"])
            return _solve(pd, inst, problem, with_oracle=True)

        def check(out):
            return _verdict(inst, out, notes, self.name, inst["fault"])

        return Op(f"qp n={inst['n']} m={inst['m']} p={inst['p']}", run, check)

    def round(self, pd, inputs, refs, notes):
        return [self._op(pd, inst, notes) for inst in inputs]

    def smoke(self, pd, inputs, refs, notes):
        return [self._op(pd, inst, notes) for inst in (inputs[0], *inputs[-2:])]


class QcqpBatch:
    name = "qcqp-batch"
    # (n, m, p, active count): one seeded instance of each of 24 shapes.
    SHAPES = [(n, m, p, k) for n in (2, 4) for m in (0, 1) for p in (1, 2, 3) for k in (0, 1)]

    def setup(self, pd, seed):
        rng = np.random.default_rng([seed, 2])
        return seeded_draws(rng, draw_qcqp, self.SHAPES)

    def references(self, inputs):
        return None

    def _op(self, pd, inst, notes):
        def run():
            n = inst["n"]
            A = inst["A"] if inst["m"] else np.zeros((0, n))
            b = inst["b"] if inst["m"] else np.zeros(0)
            problem = pd.problem.ConvexProblem(
                pd.problem.Quadratic(inst["H"], inst["c"]),
                pd.problem.AffineMap(A, b),
                tuple(pd.problem.QuadraticScalar(P, q, r) for P, q, r in inst["quad"]),
                n,
            )
            return _solve(pd, inst, problem, with_oracle=False)

        def check(out):
            return _verdict(inst, out, notes, self.name, fault_expected=False)

        return Op(f"qcqp n={inst['n']} m={inst['m']} p={inst['p']}", run, check)

    def round(self, pd, inputs, refs, notes):
        return [self._op(pd, inst, notes) for inst in inputs]

    def smoke(self, pd, inputs, refs, notes):
        return self.round(pd, inputs, refs, notes)[:3]


# -- CLI helpers --------------------------------------------------------------


def cli_call(pd, argv) -> tuple[int, str]:
    """pdflow's CLI entry point in-process: (exit code, standard error)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = pd.cli.main(argv)
    return code, err.getvalue()


def _hvac_bundle(raw: dict, d=None, price: float = 1.0) -> dict:
    """Welfare data of an hvac scenario file, in the checkers' terms."""
    h = raw["hvac"]
    net, wel = h["network"], h["welfare"]
    N = len(net["R_amb"])

    def zone(v):
        return np.broadcast_to(np.asarray(v, dtype=float), (N,)).copy()

    rho = wel["rho"]
    return {
        "gamma": zone(wel["gamma"]), "T_ref": zone(wel["T_ref"]),
        "T_min": zone(wel["T_min"]), "T_max": zone(wel["T_max"]),
        "R_amb": zone(net["R_amb"]), "d": zone(net["d"] if d is None else d),
        "T_inf": float(net["T_inf"]), "theta": float(net["theta"]),
        "rho1": price * float(rho[0]), "rho2": price * float(rho[1]),
    }


def _close(a, b, tol=1e-4) -> bool:
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float)))) <= tol


class HvacDay:
    name = "hvac-day"
    SCENARIO = SCENARIOS / "hvac_four_zone.json"

    def setup(self, pd, seed):
        # The bundled case study; the seed does not change it.
        pd.scenario.load_scenario(self.SCENARIO)
        return json.loads(self.SCENARIO.read_text())

    def references(self, raw):
        """Per-interval (T*, q*) of the TOU day and the flat-price peak."""
        h = raw["hvac"]
        hours, prices = h["tou"]["hours"], h["tou"]["prices"]
        loads = h.get("loads", {})
        base_d = np.broadcast_to(np.asarray(h["network"]["d"], float),
                                 (len(h["network"]["R_amb"]),))

        def interval(k, price):
            mid = 0.5 * (hours[k] + hours[k + 1])
            d = internal_load(mid, loads.get("occupancy_peak", 0.0),
                              loads.get("solar_peak", 0.0), base_d)
            return welfare_bisection(_hvac_bundle(raw, d=d, price=price))

        tou = [interval(k, p) for k, p in enumerate(prices)]
        flat_peak = max(interval(k, min(prices))[1] for k in range(len(prices)))
        return {"tou": tou, "flat_peak": flat_peak}

    def _op(self, pd, refs):
        out = OUT / self.name

        def run():
            return cli_call(
                pd, ["hvac-day", "--scenario", str(self.SCENARIO), "--out", str(out)])

        def check(result):
            code, err = result
            if code != 0:
                return f"exit code {code}: {err.strip()}"
            with open(out / "daily_report.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != len(refs["tou"]):
                return f"{len(rows)} intervals in daily_report.csv"
            for k, (row, (T_ref, q_ref)) in enumerate(zip(rows, refs["tou"])):
                T = [float(row[f"T{i}_star"]) for i in range(T_ref.size)]
                if not (_close(T, T_ref) and _close(float(row["q_star"]), q_ref)):
                    return f"interval {k} (T*, q*) off the bisection solve"
            peak = max(float(row["q_star"]) for row in rows)
            if peak > refs["flat_peak"] + 1e-4:
                return f"TOU peak {peak} above the flat-day peak"
            return "ok"

        return Op(self.name, run, check)

    def round(self, pd, inputs, refs, notes):
        return [self._op(pd, refs)]

    smoke = round


# -- the CLI pipeline -----------------------------------------------------------

HOT_ZONES = 7
ARTIFACTS = ("trajectory.csv", "ledger.csv", "storage.csv", "mode_table.csv", "manifest.json")


def hot_building(rng) -> dict:
    """A 7-zone building on a hot day where every upper comfort bound binds.

    Ambient 32..34 degC, heat gains 0.5..1 kW per zone, ambient resistances
    9..13 degC/kW, comfort weights 0.8..1.2, references 20.5..21.5 degC and
    supply cost rho1 in 0.8..1.2: the comfort optimum without bounds lies
    2 to 5 degC above T_max = 24 in every zone. Starts at the references
    with zero multipliers; recorded densely (stride 0.04 over 80 s).
    """
    N = HOT_ZONES
    T_ref = rng.uniform(20.5, 21.5, N)
    return {
        "name": "hot_building",
        "hvac": {
            "network": {
                "C": [9.2] * N, "R_zone": 20.0,
                "R_amb": rng.uniform(9.0, 13.0, N).tolist(),
                "T_inf": float(rng.uniform(32.0, 34.0)),
                "d": rng.uniform(0.5, 1.0, N).tolist(), "theta": 3.0,
            },
            "welfare": {
                "gamma": rng.uniform(0.8, 1.2, N).tolist(), "T_ref": T_ref.tolist(),
                "b_util": [40.0] * N, "rho": [float(rng.uniform(0.8, 1.2)), 0.0, 0.0],
                "T_min": [18.0] * N, "T_max": [24.0] * N,
            },
        },
        "dynamics": {
            "initial": {"T": T_ref.tolist(), "q": 10.0, "lambda": 0.0,
                        "mu_low": [0.0] * N, "mu_high": [0.0] * N},
            "integrator": {"horizon": 80.0, "dt_init": 0.001, "dt_max": 0.05,
                           "record_stride": 0.04, "rtol": 1e-9, "atol": 1e-12},
        },
    }


def _kkt_data(raw: dict) -> dict:
    if "hvac" in raw:
        return welfare_qp(_hvac_bundle(raw))
    prob = raw["problem"]
    eq, iq = prob.get("equality", {}), prob.get("inequality", {})
    return {"H": prob["objective"]["H"], "c": prob["objective"]["c"],
            "A": eq.get("A"), "b": eq.get("b"), "G": iq.get("G"), "d": iq.get("d")}


def terminal_row(path: Path):
    """(x, lam, mu) from the last row of a trajectory.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, last = rows[0], rows[-1]

    def block(prefix):
        return np.array([float(v) for h, v in zip(head, last)
                         if h.startswith(prefix) and h[len(prefix):].isdigit()])

    return block("x"), block("lam"), block("mu")


class CliPipeline:
    name = "cli-pipeline"
    BUNDLED = ("scalar_ineq", "eq_qp", "hvac_four_zone")

    def setup(self, pd, seed):
        base = OUT / self.name
        base.mkdir(parents=True, exist_ok=True)
        hot = base / "hot_building.json"
        hot.write_text(json.dumps(hot_building(np.random.default_rng([seed, 4])), indent=1))
        paths = [SCENARIOS / f"{s}.json" for s in self.BUNDLED] + [hot]
        for path in paths:
            pd.scenario.load_scenario(path)
        return paths

    def references(self, paths):
        refs = {}
        for path in paths:
            raw = json.loads(path.read_text())
            refs[path.stem] = {"kkt": _kkt_data(raw)}
            if path.stem == "hot_building":
                T, q = welfare_bisection(_hvac_bundle(raw))
                if not np.all(T >= np.asarray(raw["hvac"]["welfare"]["T_max"]) - 1e-9):
                    raise RuntimeError("hot building: an upper comfort bound does not bind")
                refs[path.stem]["T"] = T
        return refs

    def _op(self, pd, paths, refs):
        base = OUT / self.name

        def run():
            result = {}
            for path in paths:
                out = base / path.stem
                calls = [
                    cli_call(pd, ["simulate", "--scenario", str(path), "--out", str(out)]),
                    cli_call(pd, ["oracle", "--scenario", str(path), "--out", str(out)]),
                    cli_call(pd, ["verify", "--dir", str(out)]),
                ]
                result[path.stem] = (calls, out)
            return result

        def check(result):
            for stem, (calls, out) in result.items():
                if any(code != 0 for code, _ in calls):
                    return f"{stem} exit codes {calls}"
                if not json.loads((out / "report.json").read_text())["all_passed"]:
                    return f"{stem} report.json not all_passed"
                x, lam, mu = terminal_row(out / "trajectory.csv")
                ok, res = kkt_ok(refs[stem]["kkt"], x, lam, mu)
                if not ok:
                    return f"{stem} terminal row KKT residuals {res}"
                if "T" in refs[stem] and not _close(x[:-1], refs[stem]["T"]):
                    return f"{stem} T* off the bisection solve"
                digest = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                          for a in ARTIFACTS}
                if refs[stem].setdefault("digest", digest) != digest:
                    return f"{stem} artifacts differ between two simulate runs"
            return "ok"

        return Op(self.name, run, check)

    def round(self, pd, inputs, refs, notes):
        return [self._op(pd, inputs, refs)]

    def smoke(self, pd, inputs, refs, notes):
        return [self._op(pd, inputs, refs), self._op(pd, inputs, refs)]


WORKLOADS = {w.name: w for w in (QpBatch(), QcqpBatch(), HvacDay(), CliPipeline())}


def reset_outputs() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
