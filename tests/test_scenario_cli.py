import csv
import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

import pdflow.cli
import pdflow.hvac
from pdflow import OracleCapabilityError, StepTooLargeError, Trajectory, simulate
from pdflow.cli import _reconstruct_trajectory, main
from pdflow.scenario import ScenarioError, load_scenario, resolve_scenario, scenario_to_dict


def load_raw(scenario_dir, name):
    return json.loads((scenario_dir / f"{name}.json").read_text())


@pytest.mark.parametrize("name", ["scalar_ineq", "eq_qp", "hvac_four_zone"])
def test_manifest_round_trip(scenario_dir, name):
    raw = load_raw(scenario_dir, name)
    first = scenario_to_dict(resolve_scenario(raw))
    second = scenario_to_dict(resolve_scenario(json.loads(json.dumps(first))))
    assert first == second


def test_exactly_one_section_required():
    with pytest.raises(ScenarioError):
        resolve_scenario({"name": "x"})
    with pytest.raises(ScenarioError):
        resolve_scenario({
            "problem": {"objective": {"H": [[1.0]], "c": [0.0]}},
            "hvac": {},
        })


def test_validation_messages_carry_paths(scenario_dir):
    raw = load_raw(scenario_dir, "scalar_ineq")
    raw["problem"]["objective"]["H"] = [[-1.0]]
    with pytest.raises(ScenarioError, match="problem"):
        resolve_scenario(raw)

    raw2 = load_raw(scenario_dir, "scalar_ineq")
    raw2["dynamics"]["initial"]["mu"] = [-0.5]
    with pytest.raises(ScenarioError, match="dynamics.initial.mu"):
        resolve_scenario(raw2)

    raw3 = load_raw(scenario_dir, "hvac_four_zone")
    raw3["hvac"]["tou"]["hours"] = [0.0, 9.0, 23.0]  # gap before midnight
    raw3["hvac"]["tou"]["prices"] = [1.0, 2.0]
    with pytest.raises(ScenarioError, match="hvac.tou"):
        resolve_scenario(raw3)

    raw4 = load_raw(scenario_dir, "scalar_ineq")
    raw4["outputs"]["certificates"] = ["no-such-check"]
    with pytest.raises(ScenarioError, match="certificates"):
        resolve_scenario(raw4)


def test_outputs_stride_alias(scenario_dir):
    raw = load_raw(scenario_dir, "scalar_ineq")
    raw["outputs"]["stride"] = 0.77
    scn = resolve_scenario(raw)
    assert scn.opts.record_stride == 0.77
    # the resolved manifest carries the canonical field only
    assert "stride" not in scn.resolved["outputs"]
    assert scn.resolved["dynamics"]["integrator"]["record_stride"] == 0.77


def test_mu_zero_tolerance_parse_error_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "problem": oops}\n')
    with pytest.raises(ScenarioError, match=r":2:"):
        load_scenario(path)


def test_simulate_writes_artifacts_and_endpoint(tmp_path, scenario_dir, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(scenario_dir / "scalar_ineq.json"),
                 "--out", str(out)])
    assert code == 0
    for name in ("trajectory.csv", "ledger.csv", "storage.csv", "manifest.json"):
        assert (out / name).exists()
    rows = list(csv.DictReader(open(out / "trajectory.csv")))
    last = rows[-1]
    assert float(last["x0"]) == pytest.approx(1.0, abs=1e-4)
    assert float(last["mu0"]) == pytest.approx(2.0, abs=1e-3)


def test_simulate_horizon_zero_single_row(tmp_path, scenario_dir):
    out = tmp_path / "h0"
    code = main(["simulate", "--scenario", str(scenario_dir / "scalar_ineq.json"),
                 "--out", str(out), "--horizon", "0"])
    assert code == 0
    rows = list(csv.DictReader(open(out / "trajectory.csv")))
    assert len(rows) == 1


def test_simulate_artifacts_deterministic(tmp_path, scenario_dir):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", "--scenario", str(scenario_dir / "scalar_ineq.json"),
                     "--out", str(out)]) == 0
        blob = (out / "trajectory.csv").read_bytes() + (out / "ledger.csv").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


def test_verify_passes_then_fails_after_tamper(tmp_path, scenario_dir):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_dir / "scalar_ineq.json"),
                 "--out", str(out)]) == 0
    assert main(["oracle", "--scenario", str(scenario_dir / "scalar_ineq.json"),
                 "--out", str(out)]) == 0
    assert main(["verify", "--dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"]
    names = {r["name"] for r in report["reports"]}
    assert "convergence" in names  # oracle.json was present

    rows = list(csv.reader(open(out / "trajectory.csv")))
    hdr = rows[0]
    k = len(rows) - 3
    for col in ("P_tilde", "S_tilde"):
        i = hdr.index(col)
        rows[k][i] = repr(float(rows[k][i]) + 1.0)
    with open(out / "trajectory.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert main(["verify", "--dir", str(out)]) == 3


def test_verify_fails_an_unconverged_run(tmp_path, scenario_dir):
    out = tmp_path / "short"
    scn = str(scenario_dir / "scalar_ineq.json")
    assert main(["simulate", "--scenario", scn, "--out", str(out), "--horizon", "4"]) == 0
    assert main(["oracle", "--scenario", scn, "--out", str(out)]) == 0
    assert main(["verify", "--dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    statuses = {r["name"]: r["status"] for r in report["reports"]}
    assert statuses["convergence"] == "inconclusive"
    assert not report["all_passed"]
    # a run rebuilt from its artifacts carries no engine counters
    assert _reconstruct_trajectory(load_scenario(out / "manifest.json"), out).stats == {}


def test_verify_missing_artifacts(tmp_path):
    assert main(["verify", "--dir", str(tmp_path / "nope")]) == 1


def test_verify_equality_only_run_reports(tmp_path, scenario_dir):
    out = tmp_path / "eq"
    assert main(["simulate", "--scenario", str(scenario_dir / "eq_qp.json"),
                 "--out", str(out)]) == 0
    assert main(["verify", "--dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    names = {r["name"] for r in report["reports"]}
    assert names == {"unforced-decrease"}


def test_oracle_cmd_values(tmp_path, scenario_dir, capsys):
    out = tmp_path / "o"
    assert main(["oracle", "--scenario", str(scenario_dir / "eq_qp.json"),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["x"] == pytest.approx([1.0, 1.0])
    assert payload["lam"] == pytest.approx([-2.0])


def test_oracle_cmd_infeasible(tmp_path):
    scn = {
        "name": "infeasible",
        "problem": {
            "objective": {"H": [[2.0]], "c": [0.0]},
            "inequality": {"G": [[1.0], [-1.0]], "d": [1.0, 1.0]},
        },
        "outputs": {"dir": str(tmp_path / "x")},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    assert main(["oracle", "--scenario", str(path)]) == 1


def test_hvac_simulate_ledger_structure(tmp_path, scenario_dir):
    out = tmp_path / "hv"
    assert main(["simulate", "--scenario", str(scenario_dir / "hvac_four_zone.json"),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "ledger.csv")))
    assert len(rows) == 8
    assert all(r["kind"] == "activation" for r in rows)
    finals = list(csv.DictReader(open(out / "storage.csv")))
    assert float(finals[-1]["S_sigma"]) == 0.0
    assert main(["verify", "--dir", str(out)]) == 0


def test_hvac_day_flat_price_zero_reduction(tmp_path, scenario_dir, capsys):
    raw = load_raw(scenario_dir, "hvac_four_zone")
    raw["hvac"]["tou"] = {"hours": [0.0, 12.0, 24.0], "prices": [2.0, 2.0]}
    raw["outputs"]["dir"] = str(tmp_path / "day")
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(raw))
    assert main(["hvac-day", "--scenario", str(path)]) == 0
    text = capsys.readouterr().out
    assert "reduction" in text
    rows = list(csv.DictReader(open(tmp_path / "day" / "daily_report.csv")))
    assert len(rows) == 2
    qs = [float(r["q_star"]) for r in rows]
    # baseline uses the same flat price, so peaks cancel exactly
    assert "0.0000 kW" in text
    assert qs[0] == pytest.approx(qs[1], abs=1e-6)


def n_zone_scenario(scenario_dir, tmp_path, N, **integrator):
    """The bundled four-zone building widened to N identical zones (p = 2N)."""
    raw = load_raw(scenario_dir, "hvac_four_zone")
    raw["name"] = f"hvac_{N}_zone"
    raw["hvac"]["network"].update(C=[9.2] * N, R_amb=[11.5] * N, d=[0.5] * N)
    for key in ("gamma", "T_ref", "b_util", "T_min", "T_max"):
        raw["hvac"]["welfare"][key] = [raw["hvac"]["welfare"][key][0]] * N
    raw["dynamics"]["tau_T"] = [1.0] * N
    init = raw["dynamics"]["initial"]
    init.update(T=[22.0] * N, mu_low=[1.0] * N, mu_high=[1.0] * N)
    raw["dynamics"]["integrator"].update(integrator)
    raw["outputs"]["dir"] = str(tmp_path / f"zones{N}")
    path = tmp_path / f"zones{N}.json"
    path.write_text(json.dumps(raw))
    return raw, path


def test_hvac_day_eleven_zones_exits_0(tmp_path, scenario_dir):
    # p = 22 comfort bounds: 2^22 active sets, beyond enumeration
    raw, path = n_zone_scenario(scenario_dir, tmp_path, 11)
    assert main(["hvac-day", "--scenario", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "zones11" / "daily_report.csv")))
    assert len(rows) == len(raw["hvac"]["tou"]["prices"])  # one per TOU interval


def test_hvac_day_oracle_failure_exits_1(tmp_path, scenario_dir, capsys, monkeypatch):
    def refuse(problem):
        raise OracleCapabilityError("objective is not quadratic")

    monkeypatch.setattr(pdflow.hvac, "active_set_oracle", refuse)
    assert main(["hvac-day", "--scenario", str(scenario_dir / "hvac_four_zone.json"),
                 "--out", str(tmp_path / "day")]) == 1
    assert "oracle failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "hvac-day"])
def test_inconsistent_switch_exits_2(command, tmp_path, scenario_dir, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise StepTooLargeError("index 0 entered sigma with mu=0.5, g=-1.0 at t=0.25")

    # `simulate` runs the engine; `hvac-day` runs it through run_tou_scenario
    monkeypatch.setattr(pdflow.cli if command == "simulate" else pdflow.hvac,
                        "simulate", refuse)
    assert main([command, "--scenario", str(scenario_dir / "hvac_four_zone.json"),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "entered sigma" in err
    assert "Traceback" not in err


def test_twenty_zone_building_verifies(tmp_path, scenario_dir):
    # p = 40: checked against the oracle at a size enumeration cannot reach
    _, path = n_zone_scenario(scenario_dir, tmp_path, 20, horizon=80.0)
    out = tmp_path / "zones20"
    assert main(["simulate", "--scenario", str(path)]) == 0
    assert main(["oracle", "--scenario", str(path)]) == 0
    assert main(["verify", "--dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    conv = [r for r in report["reports"] if r["name"] == "convergence"]
    assert [r["status"] for r in conv] == ["pass"]


def wide_building(scenario_dir, tmp_path, N):
    """N identical zones with the supply cost scaled by 4/N, so every comfort
    bound ends clamped: the last sigma mask has all p = 2N bits set."""
    raw, path = n_zone_scenario(scenario_dir, tmp_path, N)
    raw["hvac"]["welfare"]["rho"][0] *= 4 / N
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("name", ["scalar_ineq", "eq_qp", "hvac_four_zone", "zones32"])
def test_verify_rebuilds_the_simulated_run(tmp_path, scenario_dir, name):
    # zones32 has p = 64: its masks pass both 2^53 (float) and 2^63 (int64)
    if name == "zones32":
        path = wide_building(scenario_dir, tmp_path, 32)
    else:
        path = scenario_dir / f"{name}.json"
    out = tmp_path / name
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert main(["verify", "--dir", str(out)]) == 0
    scn = load_scenario(out / "manifest.json")
    ran = simulate(scn.composed, scn.initial, scn.opts)
    rebuilt = _reconstruct_trajectory(scn, out)
    if name == "zones32":
        assert ran.sigma[-1] == frozenset(range(64))
    assert rebuilt.sigma == ran.sigma
    assert rebuilt.ledger == ran.ledger
    for f in fields(Trajectory):
        a, b = getattr(rebuilt, f.name), getattr(ran, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b), f.name


def test_hvac_day_requires_hvac_scenario(scenario_dir):
    assert main(["hvac-day", "--scenario", str(scenario_dir / "eq_qp.json")]) == 1


def test_selftest_passes():
    assert main(["selftest", "--seed", "3"]) == 0
