"""pdflow benchmark: one workload per run, end to end or traced layer by layer.

    python3 bench/run.py --workload qp-batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

A run sets the program up nine times (fresh import of pdflow, input
generation or scenario parsing, system construction) and reports the median
as `setup_s`. It then runs whole rounds of the workload's ops, one after
another, for about `--seconds` (a round starts only if one as long as the
last still fits), checks every op's output against the benchmark's own
computations, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
run first measures untraced rounds for a third of the time, then wraps
pdflow's layer boundaries (see spans.py) and reports per-layer metrics from
the traced rounds, plus the tracing overhead per op. `--smoke` runs a few ops
of every workload with the same checks, and the checkers' own tests, and
reports no metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MODULES = ("problem", "brayton_moser", "switching", "interconnect", "integrator",
           "monitor", "hvac", "scenario", "cli")


def load_pdflow() -> SimpleNamespace:
    """Import pdflow afresh from this checkout's source tree."""
    for name in [n for n in sys.modules if n == "pdflow" or n.startswith("pdflow.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pdflow")
    if Path(pkg.__file__).resolve().parent != SRC / "pdflow":
        raise ImportError(f"pdflow imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"pdflow.{m}") for m in MODULES})


def set_up(workload, seed):
    """Median set-up time over SETUP_REPEATS, and the last set-up's results."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pd = load_pdflow()
        inputs = workload.setup(pd, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), pd, inputs


class Tally:
    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_op(self, op) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            self.errors.append(f"{op.label}: {traceback.format_exc()}")
            return
        self.times.append(time.perf_counter() - t0)
        verdict = op.check(out)
        if verdict == "failed":
            self.failed += 1
        elif verdict != "ok":
            self.errors.append(f"{op.label}: {verdict}")


def run_rounds(ops, seconds: float, tally: Tally) -> None:
    """Whole rounds of `ops`: at least one, and another only while a round
    as long as the last one still ends within `seconds`."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            tally.run_op(op)
        now = time.perf_counter()
        if 2 * now - round_start - start > seconds:
            return


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    workloads.reset_outputs()
    setup_s, pd, inputs = set_up(workload, args.seed)
    refs = workload.references(inputs)
    notes = Counter()
    ops = workload.round(pd, inputs, refs, notes)

    plain = Tally()
    if not args.trace:
        run_rounds(ops, args.seconds, plain)
        tallies = [plain]
        metrics = {
            "op_p50_ms": (1e3 * statistics.median(plain.times), "ms"),
            "ops_per_s": (len(plain.times) / sum(plain.times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        start = time.perf_counter()
        run_rounds(ops, args.seconds / 3.0, plain)
        traced, tracer = Tally(), Tracer()
        missing = tracer.install(pd)
        try:
            run_rounds(ops, args.seconds - (time.perf_counter() - start), traced)
        finally:
            tracer.uninstall()
        for name in missing:
            print(f"trace: no call site {name}", file=sys.stderr)
        tallies = [plain, traced]
        metrics = per_layer_metrics(tracer, traced.attempted)
        metrics["trace.overhead_s"] = (
            statistics.median(traced.times) - statistics.median(plain.times), "s/op")
        summary = workloads.OUT / f"trace-{workload.name}.json"
        summary.write_text(json.dumps(tracer.summary(), indent=1) + "\n")

    for key, count in sorted(notes.items()):
        print(f"note: {key}: {count} op(s)")
    errors = [e for t in tallies for e in t.errors]
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


def smoke() -> int:
    import test_checkers

    bad = 0
    for test in [getattr(test_checkers, n) for n in dir(test_checkers) if n.startswith("test_")]:
        try:
            test()
        except AssertionError:
            bad += 1
            print(f"checker test {test.__name__} FAILED\n{traceback.format_exc()}")
    pd = load_pdflow()
    workloads.reset_outputs()
    for workload in workloads.WORKLOADS.values():
        inputs = workload.setup(pd, 0)
        refs = workload.references(inputs)
        notes = Counter()
        tally = Tally()
        for op in workload.smoke(pd, inputs, refs, notes):
            tally.run_op(op)
        for err in tally.errors:
            print(f"error: {err}")
        bad += len(tally.errors)
        print(f"smoke {workload.name}: {tally.attempted} ops, {tally.failed} known-fault "
              f"failures, {len(tally.errors)} errors")
    print("smoke: ok" if not bad else f"smoke: {bad} problem(s)")
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "pdflow" / "__init__.py").is_file():
        print(f"no pdflow source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
