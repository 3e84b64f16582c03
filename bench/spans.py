"""Layer spans for the traced run, recorded at pdflow's module attributes.

`Tracer.install` replaces a function at the module attribute through which
its caller looks it up (for example `pdflow.hvac.simulate`, the name
`run_tou_scenario` calls) with a wrapper that records a span, and
`uninstall` puts the originals back. No file of the program changes.

Spans nest. For each span name the tracer keeps the call count, inclusive
time, self time (inclusive minus the spans nested directly inside it) and
the longest single call; for each layer it keeps the time covered by that
layer's outermost spans, so a layer calling itself is not counted twice.
Only these totals are kept in memory; `summary` returns them for writing
out when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module, attribute, span name[, counter hook]) for every wrapped call site.
# A counter hook receives (tracer, args, result) after the call returns.


def _count_run(tracer, args, traj):
    tracer.counts["integrator.samples"] += len(traj)
    tracer.counts["integrator.events"] += len(traj.ledger)


def _count_bytes(tracer, args, result):
    tracer.counts["integrator.csv_bytes"] += os.path.getsize(args[1])


def _count_extension(tracer, args, result):
    tracer.counts["hvac.extensions"] += 1


def call_sites(pd):
    """Every layer boundary the benchmark's ops cross, as (module, attr, span, hook)."""
    return [
        # integrator: the engine, trajectory splicing, CSV serialization
        (pd.integrator, "simulate", "integrator.simulate", _count_run),
        (pd.hvac, "simulate", "integrator.simulate", _count_run),
        (pd.cli, "simulate", "integrator.simulate", _count_run),
        (pd.integrator, "concat_trajectories", "integrator.concat", None),
        (pd.hvac, "concat_trajectories", "integrator.concat", _count_extension),
        (pd.cli, "write_trajectory_csv", "integrator.csv_write", _count_bytes),
        (pd.cli, "write_ledger_csv", "integrator.csv_write", _count_bytes),
        (pd.cli, "read_trajectory_csv", "integrator.csv_read", None),
        (pd.cli, "read_ledger_csv", "integrator.csv_read", None),
        # interconnect: per-sample field and port-power evaluations made by
        # simulate's post-processing and by verify's reconstruction
        (pd.integrator, "composed_vector_field", "interconnect.field_eval", None),
        (pd.integrator, "port_power", "interconnect.field_eval", None),
        (pd.cli, "composed_vector_field", "interconnect.field_eval", None),
        # brayton_moser and switching, as post-processing and the engine call them
        (pd.integrator, "krasovskii_storage", "brayton_moser.storage", None),
        (pd.integrator, "classify_switch", "switching.classify", None),
        # problem: the enumeration oracle
        (pd.problem, "active_set_oracle", "problem.oracle", None),
        (pd.hvac, "active_set_oracle", "problem.oracle", None),
        (pd.cli, "active_set_oracle", "problem.oracle", None),
        # monitor: the certificate battery and its convergence check
        (pd.monitor, "run_certificates", "monitor.run_certificates", None),
        (pd.monitor, "check_convergence", "monitor.check_convergence", None),
        (pd.hvac, "check_convergence", "monitor.check_convergence", None),
        # scenario, hvac and cli entry points
        (pd.cli, "load_scenario", "scenario.load", None),
        (pd.cli, "run_tou_scenario", "hvac.run_tou_scenario", None),
        (pd.cli, "cmd_simulate", "cli.simulate", None),
        (pd.cli, "cmd_oracle", "cli.oracle", None),
        (pd.cli, "cmd_verify", "cli.verify", None),
        (pd.cli, "cmd_hvac_day", "cli.hvac_day", None),
        (pd.cli, "_reconstruct_trajectory", "cli.reconstruct", None),
    ]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.longest = defaultdict(float)
        self.layer_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # frames: [name, layer, start, time in child spans]
        self._originals = []

    def _wrap(self, fn, name, hook):
        layer = name.split(".", 1)[0]
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[2]
                stack.pop()
                self.calls[name] += 1
                self.incl[name] += dur
                self.self_time[name] += dur - frame[3]
                self.longest[name] = max(self.longest[name], dur)
                if stack:
                    stack[-1][3] += dur
                if all(f[1] != layer for f in stack):
                    self.layer_time[layer] += dur
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, pd) -> list[str]:
        """Wrap every call site that exists; return the names of missing ones."""
        missing = []
        for module, attr, name, hook in call_sites(pd):
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        return missing

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "inclusive_s": self.incl[name],
                       "self_s": self.self_time[name], "longest_s": self.longest[name]}
                for name in sorted(self.calls)
            },
            "layers_s": dict(sorted(self.layer_time.items())),
            "counts": dict(sorted(self.counts.items())),
        }


def per_layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, averaged over `ops` traced ops."""
    def per_op(v):
        return v / ops

    return {
        "integrator.simulate_s": (per_op(tr.self_time["integrator.simulate"]), "s/op"),
        "integrator.simulate_calls": (per_op(tr.calls["integrator.simulate"]), "count/op"),
        "integrator.samples": (per_op(tr.counts["integrator.samples"]), "count/op"),
        "integrator.events": (per_op(tr.counts["integrator.events"]), "count/op"),
        "integrator.concat_s": (per_op(tr.incl["integrator.concat"]), "s/op"),
        "integrator.csv_write_s": (per_op(tr.incl["integrator.csv_write"]), "s/op"),
        "integrator.csv_read_s": (per_op(tr.incl["integrator.csv_read"]), "s/op"),
        "integrator.csv_bytes": (per_op(tr.counts["integrator.csv_bytes"]), "B/op"),
        "interconnect.field_evals": (per_op(tr.calls["interconnect.field_eval"]), "count/op"),
        "interconnect.field_eval_s": (per_op(tr.incl["interconnect.field_eval"]), "s/op"),
        "brayton_moser.storage_evals": (per_op(tr.calls["brayton_moser.storage"]), "count/op"),
        "switching.classifications": (per_op(tr.calls["switching.classify"]), "count/op"),
        "problem.oracle_calls": (per_op(tr.calls["problem.oracle"]), "count/op"),
        "problem.oracle_s": (per_op(tr.incl["problem.oracle"]), "s/op"),
        "problem.oracle_max_s": (tr.longest["problem.oracle"], "s"),
        "monitor.certificates_s": (per_op(tr.layer_time["monitor"]), "s/op"),
        "monitor.convergence_checks": (per_op(tr.calls["monitor.check_convergence"]), "count/op"),
        "scenario.load_s": (per_op(tr.incl["scenario.load"]), "s/op"),
        "hvac.day_s": (per_op(tr.incl["hvac.run_tou_scenario"]), "s/op"),
        "hvac.extensions": (per_op(tr.counts["hvac.extensions"]), "count/op"),
        "cli.simulate_s": (per_op(tr.incl["cli.simulate"]), "s/op"),
        "cli.oracle_s": (per_op(tr.incl["cli.oracle"]), "s/op"),
        "cli.verify_s": (per_op(tr.incl["cli.verify"]), "s/op"),
        # verify's reconstruction of the run from its CSVs, reading excluded
        "cli.verify_self_s": (
            per_op(tr.incl["cli.reconstruct"] - tr.incl["integrator.csv_read"]), "s/op"),
    }
