"""Command-line entry point: simulate, verify, oracle, hvac-day, selftest.

Exit codes: 0 success, 1 scenario/validation error, 2 simulation failure
(divergence, event isolation, an inconsistent switch, interval convergence),
3 certificate failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import monitor
from .hvac import IntervalConvergenceError, TouSchedule, run_tou_scenario, synth_internal_load
from .integrator import (
    LEDGER_HEADER,
    DivergenceError,
    EventIsolationError,
    Trajectory,
    assemble_trajectory,
    ledger_columns,
    read_ledger_csv,
    read_trajectory_csv,
    simulate,
    write_csv,
    write_ledger_csv,
    write_trajectory_csv,
)
from .interconnect import GenericField, compiled_field
from .problem import (
    InfeasibleProblemError,
    KktPoint,
    OracleCapabilityError,
    active_set_oracle,
    kkt_residual,
)
from .scenario import Scenario, ScenarioError, load_scenario, scenario_to_dict
from .switching import StepTooLargeError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_CERTIFICATE = 3


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _mode_rows(traj: Trajectory):
    """(t_start, t_end, sigma, S_sigma at entry) of each constant-mode interval."""
    times, s_sigma, sigma = traj.times.tolist(), traj.s_sigma.tolist(), traj.sigma
    starts = [0] + [k for k in range(1, len(traj)) if sigma[k] != sigma[k - 1]]
    ends = starts[1:] + [len(traj) - 1]
    return [(times[a], times[b], sigma[a], s_sigma[a]) for a, b in zip(starts, ends)]


def format_mode_table(traj: Trajectory) -> str:
    """Interval / active set / mode storage table (the switching ledger view)."""
    lines = [f"{'interval':<28} {'sigma':<24} {'S_sigma at entry':>16}"]
    for t0, t1, sig, s in _mode_rows(traj):
        sig_str = "{" + ",".join(str(i) for i in sorted(sig)) + "}" if sig else "{}"
        lines.append(f"[{t0:>11.6f}, {t1:>11.6f}) {sig_str:<24} {s:>16.6e}")
    return "\n".join(lines)


def write_mode_table_csv(traj: Trajectory, path: Path) -> None:
    t0, t1, sig, s = zip(*_mode_rows(traj))
    write_csv(path, ["t_start", "t_end", "sigma", "S_sigma_at_entry"],
              [t0, t1, [" ".join(map(str, sorted(g))) for g in sig], s])


def cmd_simulate(args) -> int:
    try:
        scn = load_scenario(args.scenario, horizon=args.horizon,
                            dt_max=args.dt_max, out_dir=args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(scn.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        traj = simulate(scn.composed, scn.initial, scn.opts)
    except (DivergenceError, EventIsolationError, StepTooLargeError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        if isinstance(exc, DivergenceError):
            print(f"last valid state at t={exc.time!r}: {exc.state.tolist()}",
                  file=sys.stderr)
        return EXIT_DIVERGENCE
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_ledger_csv(traj.ledger, out / "ledger.csv")
    write_csv(out / "storage.csv", ["t", "P_tilde", "S_sigma", "S_tilde"],
              [traj.times, traj.p_tilde, traj.s_sigma, traj.s_tilde])
    write_mode_table_csv(traj, out / "mode_table.csv")
    _write_json(out / "manifest.json", scenario_to_dict(scn))
    end = traj.final_state
    print(f"{scn.name}: {len(traj)} samples, {len(traj.ledger)} switch events")
    print(f"  final x  = {np.array2string(end.x, precision=6)}")
    if end.lam.size:
        print(f"  final lam= {np.array2string(end.lam, precision=6)}")
    if end.mu.size:
        print(f"  final mu = {np.array2string(end.mu, precision=6)}")
    print(f"  final storages P~={traj.p_tilde[-1]:.3e} "
          f"S_sigma={traj.s_sigma[-1]:.3e} S~={traj.s_tilde[-1]:.3e}")
    if traj.ledger:
        print(format_mode_table(traj))
    print(f"artifacts written to {out}")
    return EXIT_OK


def _reconstruct_trajectory(scn: Scenario, out: Path) -> Trajectory:
    """Rebuild a simulated run from its artifacts through the run's own field.

    g and the derivatives are recomputed from the stored states; the stored
    storages and port powers are kept, so the certificates check what was
    written.
    """
    data = read_trajectory_csv(out / "trajectory.csv")
    ledger = read_ledger_csv(out / "ledger.csv")
    sys_ = scn.composed
    n, m, p = sys_.n, sys_.m, sys_.p
    if (data["n"], data["m"], data["p"]) != (n, m, p):
        raise ScenarioError("trajectory.csv dimensions disagree with manifest")
    sigmas = [frozenset(i for i in range(p) if mask >> i & 1) for mask in data["sigma_mask"]]
    field = compiled_field(sys_) or GenericField(sys_)
    return assemble_trajectory(
        field, data["t"], np.hstack([data["x"], data["lam"], data["mu"]]), sigmas,
        data["event_pre"], ledger=ledger, opts=scn.opts,
        p_tilde=data["P_tilde"], s_sigma=data["S_sigma"], s_tilde=data["S_tilde"],
        power_eq=data["power_eq"], power_ineq=data["power_ineq"],
        power_ext=data["power_ext"],
    )


def _read_oracle(path: Path, sys_) -> KktPoint:
    """The point `pdflow oracle` wrote; a malformed file raises ValueError."""
    try:
        payload = json.loads(path.read_text())
        point = KktPoint(*(np.array(payload[k], dtype=float) for k in ("x", "lam", "mu")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not an oracle point ({type(exc).__name__}: {exc})") from None
    if (point.x.shape, point.lam.shape, point.mu.shape) != ((sys_.n,), (sys_.m,), (sys_.p,)):
        raise ValueError(f"{path}: oracle dimensions disagree with manifest")
    return point


_INEQ = "needs a run with inequalities"
_WHY_NO_REPORT = {"unforced-decrease": "needs a run without inequalities",
                  "composite-decrease": _INEQ, "switch-ledger": _INEQ, "hybrid-passivity": _INEQ,
                  "quadratic-norm": "needs a projection run, which verify does not rebuild",
                  "convergence": "needs oracle.json; run `pdflow oracle` first"}


def cmd_verify(args) -> int:
    out = Path(args.dir)
    for stale in ("report.json", "report.txt"):  # an exit 1 leaves no earlier report
        (out / stale).unlink(missing_ok=True)
    manifest = out / "manifest.json"
    if not manifest.exists():
        print(f"missing manifest: {manifest}", file=sys.stderr)
        return EXIT_VALIDATION
    oracle_path = out / "oracle.json"
    try:
        scn = load_scenario(manifest)
        traj = _reconstruct_trajectory(scn, out)
        oracle = _read_oracle(oracle_path, scn.composed) if oracle_path.exists() else None
    except (ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"cannot reconstruct run: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    reports = monitor.run_certificates(traj, oracle=oracle)
    if scn.certificates and "auto" not in scn.certificates:
        reports = [r for r in reports if r.name in scn.certificates]
        missing = [c for c in scn.certificates if c not in {r.name for r in reports}]
        if missing:
            print("requested certificate(s) produced no report: "
                  + "; ".join(f"{c} ({_WHY_NO_REPORT[c]})" for c in missing), file=sys.stderr)
            return EXIT_VALIDATION
    # an inconclusive convergence report means the run has not settled: not a pass
    failed = [r for r in reports if r.status in (monitor.FAIL, monitor.INCONCLUSIVE)]
    _write_json(out / "report.json", {
        "scenario": scn.name,
        "reports": [monitor.report_to_dict(r) for r in reports],
        "all_passed": not failed,
    })
    table = monitor.format_report_table(reports)
    (out / "report.txt").write_text(table + "\n")
    print(table)
    if failed:
        print(f"{len(failed)} certificate(s) failed or inconclusive", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        scn = load_scenario(args.scenario, out_dir=args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        point = active_set_oracle(scn.problem)
    except (InfeasibleProblemError, OracleCapabilityError) as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    res = kkt_residual(scn.problem, point)
    print(f"x*   = {np.array2string(point.x, precision=10)}")
    if point.lam.size:
        print(f"lam* = {np.array2string(point.lam, precision=10)}")
    if point.mu.size:
        print(f"mu*  = {np.array2string(point.mu, precision=10)}")
    print(f"kkt residuals: stationarity={res.stationarity:.2e} "
          f"equality={res.equality:.2e} inequality={res.inequality:.2e} "
          f"complementarity={res.complementarity:.2e} dual={res.dual_negativity:.2e}")
    out = Path(scn.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "oracle.json", {
        "x": point.x.tolist(), "lam": point.lam.tolist(), "mu": point.mu.tolist(),
        "residuals": {
            "stationarity": res.stationarity, "equality": res.equality,
            "inequality": res.inequality, "complementarity": res.complementarity,
            "dual_negativity": res.dual_negativity,
        },
    })
    return EXIT_OK


def cmd_hvac_day(args) -> int:
    try:
        scn = load_scenario(args.scenario, out_dir=args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if scn.kind != "hvac" or scn.hvac is None:
        print("hvac-day requires an hvac scenario", file=sys.stderr)
        return EXIT_VALIDATION
    hb = scn.hvac
    loads = None
    if hb.occupancy_peak or hb.solar_peak:
        loads = lambda t: synth_internal_load(t, hb.occupancy_peak, hb.solar_peak,
                                              hb.network.d)
    # same hour edges so loads sample identically; only the price differs
    flat = TouSchedule(hours=hb.tou.hours.copy(),
                       prices=np.full_like(hb.tou.prices, float(hb.tou.prices.min())))

    def _run(schedule):
        return run_tou_scenario(
            hb.network, hb.params, schedule, loads,
            tau_T=np.array(hb.tau_T), tau_q=hb.tau_q, tau_lam=hb.tau_lam,
            tau_mu=np.array(hb.tau_mu), opts=scn.opts, initial=scn.initial,
        )

    try:
        day = _run(hb.tou)
        baseline = _run(flat)
    except (InfeasibleProblemError, OracleCapabilityError) as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntervalConvergenceError, DivergenceError, EventIsolationError,
            StepTooLargeError) as exc:
        print(f"hvac day failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    out = Path(scn.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ivs = day.intervals
    head = ["start_hour", "end_hour", "price", "q_star"]
    head += [f"T{i}_star" for i in range(hb.network.N)]
    head += ["cooling_load", "objective", "settling_time"]
    write_csv(out / "daily_report.csv", head, [
        [iv.start_hour for iv in ivs], [iv.end_hour for iv in ivs],
        [iv.price for iv in ivs], [iv.q_star for iv in ivs],
        *np.array([iv.T_star for iv in ivs]).T,
        [iv.cooling_load for iv in ivs], [iv.objective for iv in ivs],
        ["" if iv.settling_time is None else float(iv.settling_time) for iv in ivs],
    ])
    events = [(k, ev) for k, iv in enumerate(ivs) for ev in iv.trajectory.ledger]
    write_csv(out / "day_ledger.csv", ["interval", *LEDGER_HEADER],
              [[k for k, _ in events], *ledger_columns([ev for _, ev in events])])
    for k, iv in enumerate(ivs):
        sub = out / f"interval_{k:02d}"
        sub.mkdir(exist_ok=True)
        write_trajectory_csv(iv.trajectory, sub / "trajectory.csv")
        write_ledger_csv(iv.trajectory.ledger, sub / "ledger.csv")
        write_mode_table_csv(iv.trajectory, sub / "mode_table.csv")
    _write_json(out / "manifest.json", scenario_to_dict(scn))
    print(f"{'interval':<16} {'price':>7} {'q*':>10} {'T* range':>20}")
    for iv in day.intervals:
        tr = f"[{iv.T_star.min():.3f}, {iv.T_star.max():.3f}]"
        print(f"[{iv.start_hour:5.2f},{iv.end_hour:5.2f}) {iv.price:>7.3f} "
              f"{iv.q_star:>10.4f} {tr:>20}")
    reduction = baseline.peak_q - day.peak_q
    pct = 100.0 * reduction / baseline.peak_q if baseline.peak_q else 0.0
    print(f"peak load reduction vs flat-price baseline: {reduction:.4f} kW ({pct:.2f}%)")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .problem import quadratic_problem
    from .interconnect import compose, full_state
    from .integrator import IntegratorOptions

    rng = np.random.default_rng(args.seed)
    failures = []

    def check(label, ok):
        print(f"[{'ok' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    # scalar inequality problem settles on the oracle point
    prob = quadratic_problem([[2.0]], [-4.0], 4.0, G=[[1.0]], d=[-1.0])
    sysm = compose(prob, [1.0], [], [1.0])
    opts = IntegratorOptions(horizon=25.0, dt_max=0.05, record_stride=0.5, rtol=1e-9)
    traj = simulate(sysm, full_state(sysm, [0.0]), opts)
    oracle = active_set_oracle(prob)
    check("scalar inequality endpoint matches oracle",
          abs(traj.final_state.x[0] - oracle.x[0]) < 1e-4
          and abs(traj.final_state.mu[0] - oracle.mu[0]) < 1e-3)
    reports = monitor.run_certificates(traj, oracle=oracle)
    check("certificates pass on scalar run",
          all(r.passed for r in reports if r.applicable))

    # equality-constrained QP
    prob2 = quadratic_problem([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0], 0.0,
                              A_eq=[[1.0, 1.0]], b_eq=[-2.0])
    sys2 = compose(prob2, [1.0, 1.0], [1.0], [])
    traj2 = simulate(sys2, full_state(sys2, [0.0, 0.0], [0.0]), opts)
    o2 = active_set_oracle(prob2)
    check("equality QP endpoint matches oracle",
          float(np.max(np.abs(traj2.final_state.x - o2.x))) < 1e-4)

    # random QP mini-batch; unsettled runs are extended from their endpoint
    worst = 0.0
    batch_opts = IntegratorOptions(horizon=60.0, dt_max=0.2, record_stride=5.0,
                                   rtol=1e-9)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        eigs = rng.uniform(0.5, 5.0, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        H = Q @ np.diag(eigs) @ Q.T
        H = 0.5 * (H + H.T)
        c = rng.uniform(-2, 2, n)
        x_feas = rng.uniform(-1, 1, n)
        G = rng.normal(size=(2, n))
        d = -(G @ x_feas) - rng.uniform(0.2, 1.0, 2)
        pr = quadratic_problem(H, c, 0.0, G=G, d=d)
        sy = compose(pr, np.ones(n), [], np.ones(2))
        pt = active_set_oracle(pr)
        tr = simulate(sy, full_state(sy, x_feas, mu=rng.uniform(0, 1, 2)), batch_opts)
        for _ in range(3):
            err = float(np.max(np.abs(tr.final_state.x - pt.x)))
            if err <= 1e-4:
                break
            end = tr.final_state
            tr = simulate(sy, full_state(sy, end.x, end.lam, end.mu), batch_opts)
        worst = max(worst, float(np.max(np.abs(tr.final_state.x - pt.x))))
    check(f"random batch endpoint error {worst:.2e} < 1e-4", worst < 1e-4)

    if failures:
        print(f"{len(failures)} selftest failure(s)", file=sys.stderr)
        return EXIT_CERTIFICATE
    print("selftest passed")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `pdflow` parser, built once per process; treat it as read-only."""
    parser = argparse.ArgumentParser(
        prog="pdflow",
        description="Primal-dual gradient flow simulator and certificate checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario, write CSV artifacts")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", default=None, help="output directory override")
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--dt-max", type=float, default=None)

    p_ver = sub.add_parser("verify", help="check certificates over run artifacts")
    p_ver.add_argument("--dir", required=True, help="directory with simulate artifacts")

    p_or = sub.add_parser("oracle", help="active-set ground truth for a scenario")
    p_or.add_argument("--scenario", required=True)
    p_or.add_argument("--out", default=None)

    p_day = sub.add_parser("hvac-day", help="24 h time-of-use scenario run")
    p_day.add_argument("--scenario", required=True)
    p_day.add_argument("--out", default=None)

    p_self = sub.add_parser("selftest", help="quick end-to-end battery")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_<name> sees every call
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
