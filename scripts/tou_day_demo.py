#!/usr/bin/env python3
"""Run the bundled 24 h time-of-use pricing scenario and print the day report.

Equivalent to `pdflow hvac-day --scenario scenarios/hvac_four_zone.json`;
kept as a script for quick experimentation with the schedule and load peaks.
Artifacts land in out/tou_day_demo/, or in the directory `main` is given.
"""

import sys
from pathlib import Path

from pdflow.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def main(out_dir=ROOT / "out" / "tou_day_demo") -> int:
    scenario = ROOT / "scenarios" / "hvac_four_zone.json"
    return cli_main(["hvac-day", "--scenario", str(scenario), "--out", str(out_dir)])


if __name__ == "__main__":
    sys.exit(main())
