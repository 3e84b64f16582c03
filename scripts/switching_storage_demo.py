#!/usr/bin/env python3
"""Run the bundled four-zone scenario and print its switching/storage ledger.

The run starts with every comfort-bound multiplier positive; one by one they
reach zero while their constraints are strictly feasible, each switch dropping
the mode storage until it reaches exactly zero. Artifacts land in
out/switching_demo/, or in the directory `main` is given.
"""

from pathlib import Path

from pdflow import load_scenario, simulate, write_ledger_csv, write_trajectory_csv
from pdflow.cli import format_mode_table

ROOT = Path(__file__).resolve().parent.parent


def main(out_dir=ROOT / "out" / "switching_demo"):
    scn = load_scenario(ROOT / "scenarios" / "hvac_four_zone.json", out_dir=str(out_dir))
    traj = simulate(scn.composed, scn.initial, scn.opts)
    print(f"{len(traj.ledger)} switch events:")
    for ev in traj.ledger:
        print(f"  t={ev.time:9.5f}  constraint {ev.index}  {ev.kind:<12} "
              f"S: {ev.storage_before:9.4f} -> {ev.storage_after:9.4f}")
    print()
    print(format_mode_table(traj))
    end = traj.final_state
    print(f"\nterminal zone temperatures: {end.x[:-1].round(4)}")
    print(f"terminal supply q: {end.x[-1]:.4f}, final mode storage: {traj.s_sigma[-1]}")
    out = Path(scn.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_ledger_csv(traj.ledger, out / "ledger.csv")
    print(f"artifacts in {out}")


if __name__ == "__main__":
    main()
