"""The artifact CSV codec: number format, cross-file agreement, checked reading.

Every float cell must be the shortest decimal that reads back as the stored
double, so `verify` rebuilds exactly the run that `simulate` wrote; a
malformed artifact must end `verify` with exit 1 and a message.
"""

import json
import shutil

import numpy as np
import pytest

from pdflow import simulate
from pdflow.cli import main
from pdflow.integrator import read_csv, read_ledger_csv, write_csv
from pdflow.scenario import load_scenario

# columns whose cells are not floats
NON_FLOAT = {"sigma_mask", "event_pre", "index", "kind", "sigma", "interval"}


def cells(path):
    """(header, columns) of an artifact CSV, cells as written."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, {name: [r[j] for r in rows] for j, name in enumerate(header)}


def assert_shortest_round_trip(path):
    header, cols = cells(path)
    for name in header:
        if name in NON_FLOAT:
            continue
        for cell in cols[name]:
            if name == "settling_time" and cell == "":
                continue
            assert str(float(cell)) == cell, (path.name, name, cell)


@pytest.fixture(scope="module")
def four_zone_run(tmp_path_factory, scenario_dir):
    out = tmp_path_factory.mktemp("four_zone")
    scenario = scenario_dir / "hvac_four_zone.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    scn = load_scenario(scenario)
    return out, simulate(scn.composed, scn.initial, scn.opts)


def test_simulate_cells_are_the_stored_doubles(four_zone_run):
    out, traj = four_zone_run
    for name in ("trajectory.csv", "ledger.csv", "storage.csv", "mode_table.csv"):
        assert_shortest_round_trip(out / name)
    header, cols = cells(out / "trajectory.csv")
    stored = {"t": traj.times, "P_tilde": traj.p_tilde, "S_sigma": traj.s_sigma,
              "S_tilde": traj.s_tilde, "power_eq": traj.power_eq,
              "power_ineq": traj.power_ineq, "power_ext": traj.power_ext}
    for block, arr in (("x", traj.x), ("lam", traj.lam), ("mu", traj.mu)):
        stored.update({f"{block}{i}": arr[:, i] for i in range(arr.shape[1])})
    assert set(stored) == set(header) - NON_FLOAT
    for name, arr in stored.items():
        assert [float(c) for c in cols[name]] == arr.tolist(), name
    assert cols["sigma_mask"] == [str(m) for m in traj.sigma_bitmask()]
    assert cols["event_pre"] == [str(int(e)) for e in traj.event_pre]
    _, ledger = cells(out / "ledger.csv")
    assert [float(c) for c in ledger["t"]] == [ev.time for ev in traj.ledger]
    assert [float(c) for c in ledger["S_after"]] == [ev.storage_after for ev in traj.ledger]


def test_storage_csv_repeats_the_trajectory_cells(four_zone_run):
    out, _ = four_zone_run
    header, storage = cells(out / "storage.csv")
    _, trajectory = cells(out / "trajectory.csv")
    assert header == ["t", "P_tilde", "S_sigma", "S_tilde"]
    for name in header:
        assert storage[name] == trajectory[name]


def test_hvac_day_cells_are_shortest_and_agree(tmp_path, scenario_dir):
    out = tmp_path / "day"
    assert main(["hvac-day", "--scenario", str(scenario_dir / "hvac_four_zone.json"),
                 "--out", str(out)]) == 0
    subs = sorted(out.glob("interval_*"))
    assert len(subs) == 4
    for path in [out / "daily_report.csv", out / "day_ledger.csv", *out.glob("*/*.csv")]:
        assert_shortest_round_trip(path)
    header, report = cells(out / "daily_report.csv")
    N = sum(1 for name in header if name.endswith("_star")) - 1
    day_rows = (out / "day_ledger.csv").read_text().splitlines()[1:]
    expected = []
    for k, sub in enumerate(subs):
        _, traj = cells(sub / "trajectory.csv")
        assert report["q_star"][k] == traj[f"x{N}"][-1]
        assert [report[f"T{i}_star"][k] for i in range(N)] == [traj[f"x{i}"][-1] for i in range(N)]
        expected += [f"{k},{row}" for row in (sub / "ledger.csv").read_text().splitlines()[1:]]
    assert day_rows == expected


def test_write_csv_then_read_csv(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ["a", "b", "c"], [np.array([0.1, 1e-300]), [1, 2], ["x", ""]])
    assert path.read_text() == "a,b,c\n0.1,1,x\n1e-300,2,\n"
    assert read_csv(path, ["a", "b", "c"]) == [["0.1", "1", "x"], ["1e-300", "2", ""]]
    with pytest.raises(ValueError, match=r"a\.csv:1: expected header a,b"):
        read_csv(path, ["a", "b"])
    path.write_text("a,b,c\n0.1,1,x\n0.2,2\n")
    with pytest.raises(ValueError, match=r"a\.csv:3: expected 3 fields, got 2"):
        read_csv(path, ["a", "b", "c"])


# -- verify on malformed artifacts -------------------------------------------------


@pytest.fixture(scope="module")
def scalar_run(tmp_path_factory, scenario_dir):
    out = tmp_path_factory.mktemp("scalar")
    scenario = str(scenario_dir / "scalar_ineq.json")
    assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
    assert main(["oracle", "--scenario", scenario, "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_copy(scalar_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(scalar_run, out)
    return out


def test_verify_exits_1_on_a_short_ledger_row(run_copy, capsys):
    lines = (run_copy / "ledger.csv").read_text().splitlines()
    assert len(lines) > 1
    lines[1] = ",".join(lines[1].split(",")[:3])
    (run_copy / "ledger.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="ledger.csv:2: expected 5 fields, got 3"):
        read_ledger_csv(run_copy / "ledger.csv")
    assert main(["verify", "--dir", str(run_copy)]) == 1
    assert "ledger.csv:2" in capsys.readouterr().err


def test_verify_exits_1_on_an_oracle_without_lam(run_copy, capsys):
    payload = json.loads((run_copy / "oracle.json").read_text())
    del payload["lam"]
    (run_copy / "oracle.json").write_text(json.dumps(payload))
    assert main(["verify", "--dir", str(run_copy)]) == 1
    assert "oracle.json" in capsys.readouterr().err


def test_verify_exits_1_on_an_oracle_that_is_not_json(run_copy, capsys):
    (run_copy / "oracle.json").write_text("{not json")
    assert main(["verify", "--dir", str(run_copy)]) == 1
    assert "oracle.json" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["no rows", "nan cell", "text cell"])
def test_verify_exits_1_on_a_damaged_trajectory(run_copy, capsys, damage):
    path = run_copy / "trajectory.csv"
    lines = path.read_text().splitlines()
    if damage == "no rows":
        lines = lines[:1]
    else:
        row = lines[2].split(",")
        row[1] = "nan" if damage == "nan cell" else "abc"
        lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--dir", str(run_copy)]) == 1
    assert "trajectory.csv" in capsys.readouterr().err
