"""Post-hoc verification of the dissipation and convergence certificates.

Every check is a pure function of a Trajectory record and returns a
CertificateReport; re-running a check on the same trajectory yields an
identical report. Inequality checks allow a violation budget of

    max(1e-8, 10 * rtol * scale)

where rtol is the integrator relative tolerance the trajectory was produced
with and scale is the max absolute value of the checked signal; the budget is
recorded in each report. "not-applicable" and "inconclusive" are first-class
outcomes, distinct from pass/fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import KktPoint, kkt_residual
from .switching import ACTIVATION

__all__ = [
    "CertificateReport",
    "violation_budget",
    "check_unforced_decrease",
    "check_composite_decrease",
    "check_switch_ledger",
    "check_hybrid_passivity",
    "check_hybrid_passivity_all",
    "check_quadratic_norm",
    "check_convergence",
    "run_certificates",
    "report_to_dict",
    "format_report_table",
]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
INCONCLUSIVE = "inconclusive"

PRECONDITION_TOL = 1e-8  # check_quadratic_norm: largest g(u*) and |mu_bar g(u*)|
TOL_X, TOL_KKT = 1e-4, 1e-6  # check_convergence: terminal primal error and KKT defect


@dataclass(frozen=True)
class CertificateReport:
    name: str
    status: str
    worst_violation: float
    location: float | None
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def applicable(self) -> bool:
        return self.status in (PASS, FAIL)


def violation_budget(traj, scale: float) -> float:
    rtol = traj.opts.rtol if traj.opts is not None else 1e-8
    return max(1e-8, 10.0 * rtol * abs(scale))


def _monotone_report(name: str, times, values, budget: float) -> CertificateReport:
    if len(values) < 2:
        return CertificateReport(name, PASS, 0.0, None, budget)
    diffs = np.diff(values)
    k = int(np.argmax(diffs))
    worst = float(diffs[k])
    status = PASS if worst <= budget else FAIL
    return CertificateReport(name, status, worst, float(times[k + 1]), budget)


def check_unforced_decrease(traj) -> CertificateReport:
    """Krasovskii storage P_tilde never increases between samples.

    Meaningful for runs with constant input and no inequality block (there
    the composite check applies instead).
    """
    scale = float(np.max(np.abs(traj.p_tilde), initial=0.0))
    return _monotone_report(
        "unforced-decrease", traj.times, traj.p_tilde, violation_budget(traj, scale)
    )


def check_composite_decrease(traj) -> CertificateReport:
    """Composite storage S_tilde never increases, across switches included."""
    scale = float(np.max(np.abs(traj.s_tilde), initial=0.0))
    return _monotone_report(
        "composite-decrease", traj.times, traj.s_tilde, violation_budget(traj, scale)
    )


def check_switch_ledger(traj) -> CertificateReport:
    """Activations strictly drop the mode storage, deactivations preserve it.

    An empty ledger passes vacuously.
    """
    scale = float(np.max(np.abs(traj.s_sigma), initial=0.0))
    budget = violation_budget(traj, scale)
    if not traj.ledger:
        return CertificateReport(
            "switch-ledger", PASS, 0.0, None, budget, {"events": 0, "vacuous": True}
        )
    worst = -np.inf
    loc = None
    n_act = n_deact = 0
    min_drop = np.inf
    for ev in traj.ledger:
        jump = ev.storage_after - ev.storage_before
        if ev.kind == ACTIVATION:
            n_act += 1
            violation = jump  # must be (strictly) negative
            min_drop = min(min_drop, -jump)
        else:
            n_deact += 1
            violation = abs(jump)  # must vanish up to the event tolerance
        if violation > worst:
            worst, loc = violation, ev.time
    status = PASS if worst <= budget else FAIL
    details = {"events": len(traj.ledger), "activations": n_act,
               "deactivations": n_deact}
    if n_act:
        details["min_activation_drop"] = float(min_drop)
    return CertificateReport("switch-ledger", status, float(worst), loc, budget, details)


def _mode_storage(traj, sigma_p, k: int) -> float:
    """S_{sigma_p} re-evaluated at sample k from recorded constraint values."""
    keep = np.ones(traj.g.shape[1], dtype=bool)
    if sigma_p:
        keep[list(sigma_p)] = False
    return 0.5 * float(np.sum(traj.g[k, keep] ** 2 / traj.tau_mu[keep]))


def _visit_entries(traj, sigma_p) -> list[int]:
    entries = []
    prev = None
    for k, s in enumerate(traj.sigma):
        if traj.event_pre[k]:
            prev = s
            continue  # left-limit sample, not a visit boundary
        if s == sigma_p and prev != sigma_p:
            entries.append(k)
        prev = s
    return entries


def check_hybrid_passivity(traj, sigma_p) -> CertificateReport:
    """Revisit inequality for one mode: between consecutive visits t_i < t_j,
    S_{sigma_p}(t_j) - S_{sigma_p}(t_i) <= integral of the inequality-port
    power, up to the quadrature budget. Needs the mode visited at least twice.
    """
    sigma_p = frozenset(sigma_p)
    entries = _visit_entries(traj, sigma_p)
    if len(entries) < 2:
        return CertificateReport(
            "hybrid-passivity", NOT_APPLICABLE, 0.0, None, 0.0,
            {"mode": sorted(sigma_p), "visits": len(entries)},
        )
    s_vals = [_mode_storage(traj, sigma_p, k) for k in entries]
    scale = max(
        float(np.max(np.abs(s_vals))),
        float(np.max(np.abs(traj.power_ineq), initial=0.0)),
    )
    budget = violation_budget(traj, scale)
    worst = -np.inf
    loc = None
    for (ki, kj, si, sj) in zip(entries[:-1], entries[1:], s_vals[:-1], s_vals[1:]):
        supplied = float(
            np.trapezoid(traj.power_ineq[ki : kj + 1], traj.times[ki : kj + 1])
        )
        violation = (sj - si) - supplied
        if violation > worst:
            worst, loc = violation, float(traj.times[kj])
    status = PASS if worst <= budget else FAIL
    return CertificateReport(
        "hybrid-passivity", status, float(worst), loc, budget,
        {"mode": sorted(sigma_p), "visits": len(entries)},
    )


def check_hybrid_passivity_all(traj) -> list[CertificateReport]:
    """Run the revisit inequality for every mode seen in the trajectory."""
    seen = []
    for s in traj.sigma:
        if s not in seen:
            seen.append(s)
    reports = [check_hybrid_passivity(traj, s) for s in seen]
    if all(r.status == NOT_APPLICABLE for r in reports):
        return [
            CertificateReport(
                "hybrid-passivity", NOT_APPLICABLE, 0.0, None, 0.0,
                {"modes_seen": len(seen), "revisited": 0},
            )
        ]
    return [r for r in reports if r.status != NOT_APPLICABLE]


def check_quadratic_norm(traj, mu_bar) -> CertificateReport:
    """V(mu) = 0.5 (mu - mu_bar)' tau_mu (mu - mu_bar) never increases.

    Requires a constant-input run and an equilibrium-set reference point:
    g(u*) <= 0 and mu_bar_i g_i(u*) = 0 componentwise, up to
    PRECONDITION_TOL, else ValueError.
    """
    mu_bar = np.atleast_1d(np.asarray(mu_bar, dtype=float))
    g_star = traj.g[-1]
    if np.any(g_star > PRECONDITION_TOL):
        raise ValueError("mu_bar check: g(u*) has positive components")
    if np.any(np.abs(mu_bar * g_star) > PRECONDITION_TOL):
        raise ValueError("mu_bar violates complementary slackness at u*")
    dev = traj.mu - mu_bar
    v = 0.5 * np.sum(traj.tau_mu * dev**2, axis=1)
    scale = float(np.max(np.abs(v), initial=0.0))
    report = _monotone_report(
        "quadratic-norm", traj.times, v, violation_budget(traj, scale)
    )
    return CertificateReport(
        report.name, report.status, report.worst_violation, report.location,
        report.tolerance, {"V_initial": float(v[0]), "V_final": float(v[-1])},
    )


def check_convergence(traj, oracle: KktPoint) -> CertificateReport:
    """Terminal primal error against the oracle point, plus terminal KKT defect.

    Passes when the error is at most TOL_X and the defect at most TOL_KKT.
    Reports the settling time (first time after which the primal error stays
    below TOL_X). If the horizon ended with the error still clearly shrinking
    the outcome is inconclusive rather than a failure.
    """
    problem = getattr(traj.sys, "problem", None)
    if problem is None:
        raise ValueError("trajectory carries no problem; cannot check convergence")
    err = np.max(np.abs(traj.x - oracle.x), axis=1)
    terminal_err = float(err[-1])
    point = KktPoint(traj.x[-1], traj.lam[-1], traj.mu[-1])
    res = kkt_residual(problem, point)
    above = np.flatnonzero(err > TOL_X)
    if above.size == 0:
        settling = float(traj.times[0])
    elif above[-1] + 1 < err.size:
        settling = float(traj.times[above[-1] + 1])
    else:
        settling = None
    ok = terminal_err <= TOL_X and res.max_defect <= TOL_KKT
    if ok:
        status = PASS
    else:
        # error still clearly decreasing when the horizon cut the run short
        ref = float(err[-3]) if err.size >= 3 else float(err[0])
        still_shrinking = terminal_err < 0.999 * ref
        status = INCONCLUSIVE if still_shrinking else FAIL
    worst = max(terminal_err, res.max_defect * (TOL_X / TOL_KKT))
    return CertificateReport(
        "convergence", status, worst, float(traj.times[-1]), TOL_X,
        {
            "terminal_x_error": terminal_err,
            "terminal_kkt": res.max_defect,
            "tol_kkt": TOL_KKT,
            "settling_time": settling,
        },
    )


def run_certificates(traj, oracle: KktPoint | None = None, mu_bar=None):
    """The applicable certificate battery for one trajectory."""
    reports = []
    p = traj.mu.shape[1]
    if traj.kind == "composed":
        if p == 0:
            if traj.constant_input:
                reports.append(check_unforced_decrease(traj))
        else:
            if traj.constant_input:
                reports.append(check_composite_decrease(traj))
            reports.append(check_switch_ledger(traj))
            reports.extend(check_hybrid_passivity_all(traj))
    else:
        reports.append(check_switch_ledger(traj))
        reports.extend(check_hybrid_passivity_all(traj))
        if traj.constant_input:
            ref = traj.mu[-1] if mu_bar is None else mu_bar
            reports.append(check_quadratic_norm(traj, ref))
    if oracle is not None and traj.kind == "composed":
        reports.append(check_convergence(traj, oracle))
    return reports


def report_to_dict(report: CertificateReport) -> dict:
    return {
        "name": report.name,
        "status": report.status,
        "worst_violation": report.worst_violation,
        "location": report.location,
        "tolerance": report.tolerance,
        "details": report.details,
    }


def format_report_table(reports) -> str:
    lines = [f"{'certificate':<22} {'status':<16} {'worst':>14} {'budget':>12}"]
    for r in reports:
        lines.append(
            f"{r.name:<22} {r.status:<16} {r.worst_violation:>14.4e} {r.tolerance:>12.3e}"
        )
    return "\n".join(lines)
