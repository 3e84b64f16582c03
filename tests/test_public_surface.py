"""The library's public names and its script callers.

Every name a module lists in `__all__` must exist, and the demos in
`scripts/` must still run, so removing a function cannot silently break them.
"""

import importlib
import json
import pkgutil
import runpy

import pytest

import pdflow

from conftest import REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(pdflow.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"pdflow.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_mode_revisit_demo_runs(capsys):
    runpy.run_path(str(SCRIPTS / "mode_revisit_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "switch sequence:" in out
    assert "revisit inequality per mode:" in out
    assert "fail (" not in out


def test_switching_storage_demo_writes_its_artifacts(tmp_path, capsys):
    demo = runpy.run_path(str(SCRIPTS / "switching_storage_demo.py"))
    demo["main"](tmp_path / "demo")
    out = capsys.readouterr().out
    assert "8 switch events:" in out
    assert (tmp_path / "demo" / "trajectory.csv").exists()
    assert (tmp_path / "demo" / "ledger.csv").exists()


def test_tou_day_demo_writes_one_report_row_per_interval(tmp_path, capsys):
    demo = runpy.run_path(str(SCRIPTS / "tou_day_demo.py"))
    assert demo["main"](tmp_path / "day") == 0
    assert "peak load reduction" in capsys.readouterr().out
    scenario = json.loads((REPO_ROOT / "scenarios" / "hvac_four_zone.json").read_text())
    rows = (tmp_path / "day" / "daily_report.csv").read_text().splitlines()[1:]
    assert len(rows) == len(scenario["hvac"]["tou"]["prices"])
