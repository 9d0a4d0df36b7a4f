"""Wall-clock benchmark of process serving, cascades and Algorithm-1 training.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with observability off.
``--trace 1`` is the separate traced run: it repeats the timed phase
untraced and traced (half the seconds each) to measure tracing
overhead, then runs the per-layer probes of ``layers.py`` with obs
enabled and trace files in a temporary directory.

Human-readable tables go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record, with the machine stamp, is written to
``perfbench/results/<workload>.seed<n>.trace<t>.json``.

The benchmark never sets BLAS or OpenMP thread variables: it measures
the program as a user runs it and records what it found.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: End-to-end metrics and their units, in output order.
END_TO_END = {
    "rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "memory_mb": "MiB",
    "accuracy": "fraction",
}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------------
# Machine stamp
# ----------------------------------------------------------------------
def _blas_build() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _openblas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, where it exports a getter."""
    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle
                 if "openblas" in line.split()[-1].lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": "unknown (not a git checkout)", "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "blas": _blas_build(),
        "blas_env": {key: os.environ.get(key, "unset") for key in BLAS_ENV},
        "openblas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git": _git(),
        "loadavg_before": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> int:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if count * (100 - p) / 100 >= 10:
            return p
    return 50


def latency_metrics(latencies: list[float]) -> tuple[float, float, int]:
    tail = tail_percentile(len(latencies))
    p50, pt = np.percentile(latencies, [50, tail])
    return float(p50) * 1e3, float(pt) * 1e3, tail


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_untraced(workload, seed: int, seconds: float) -> dict:
    inputs = workload.generate(seed)
    setups = []
    state = None
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - start)
        if k < SETUP_REPEATS - 1:
            workload.teardown(state)
    try:
        expected = workload.reference(state, inputs)
        outcome = workload.drive(state, inputs, expected, seconds)
    finally:
        workload.teardown(state)
    p50, tail, tail_p = latency_metrics(outcome.latencies())
    metrics = {
        "rows_per_s": outcome.rows_per_s,
        "latency_p50_ms": p50,
        "setup_s": statistics.median(setups),
        "memory_mb": outcome.memory_mb,
        "accuracy": outcome.accuracy,
    }
    details = {"setup_samples_s": setups, f"latency_p{tail_p}_ms": tail,
               "latency_samples": len(outcome.latencies()),
               "wall_rows_per_s": outcome.wall_rows_per_s,
               "seconds_measured": outcome.elapsed, **outcome.notes}
    return {"outcome": outcome, "metrics": metrics, "details": details}


def run_traced(workload, seed: int, seconds: float) -> dict:
    from repro import obs

    import layers

    inputs = workload.generate(seed)
    half = seconds / 2
    state = workload.setup(inputs)
    try:
        expected = workload.reference(state, inputs)
        plain = workload.drive(state, inputs, expected, half)
    finally:
        workload.teardown(state)

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        obs.configure(trace_path=os.path.join(tmp, "trace.jsonl"))
        try:
            state = workload.setup(inputs)     # workers boot traced
            try:
                traced = workload.drive(state, inputs, expected, half)
            finally:
                workload.teardown(state)
            for s in traced.samples:
                obs.span_at("perfbench.request", s.start, s.end,
                            workload=workload.name, caller=s.caller,
                            rows=s.rows, ok=s.ok)
            gc.collect()      # the probes should not pay for the phases' garbage
            probes, flops = layers.probe_all(seed)
        finally:
            obs.shutdown()
    metrics = {name: value for name, (value, _) in probes.items()}
    units = {name: unit for name, (_, unit) in probes.items()}
    metrics["obs.overhead_frac"] = 1.0 - traced.rows_per_s / plain.rows_per_s
    units["obs.overhead_frac"] = "fraction"
    return {"outcomes": [plain, traced], "metrics": metrics, "units": units,
            "flops": flops,
            "details": {"untraced_rows_per_s": plain.rows_per_s,
                        "traced_rows_per_s": traced.rows_per_s}}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def is_correct(workload_name: str, outcomes) -> bool:
    if any(o.failed for o in outcomes):
        return False
    if workload_name == "cascade":
        return all(o.accuracy == o.notes["recompute_accuracy"]
                   for o in outcomes)
    return True


def print_tables(name, outcomes, result, units) -> None:
    from repro.utils import format_table

    import layers

    sent = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = result["metrics"]
    tables = [
        format_table(["workload", "sent", "succeeded", "failed", "failed_frac"],
                     [[name, sent, sent - failed, failed, failed / sent]],
                     title="Requests"),
        format_table(["detail", "value"], [[k, json.dumps(v)] for k, v
                                           in result["details"].items()]),
    ]
    if "flops" in result:
        rows = [[key, f"{metrics[key]:.6g}", units[key],
                 *layers.should_move(key)] for key in sorted(metrics)]
        tables.append(format_table(
            ["metric", "value", "unit", "should move", "on"], rows,
            title=f"{name}: per-layer (traced run)"))
        tables.append(format_table(
            ["model", "plan madds (weight shapes)", "measured_flops"],
            result["flops"],
            title="Plan multiply-adds at rate 1.0 vs metrics.flops"))
    else:
        tables.append(format_table(
            ["metric", "value", "unit"],
            [[key, f"{value:.6g}", units[key]]
             for key, value in metrics.items()],
            title=f"{name}: end-to-end metrics"))
    print("\n\n".join(tables) + "\n")


def stop_resource_tracker() -> None:
    """Stop and wait for the shared-memory tracker process that
    multiprocessing started on the pools' behalf (it otherwise outlives
    this process by a moment)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    stamp = machine_stamp()

    if args.trace:
        result = run_traced(workload, args.seed, args.seconds)
        outcomes, units = result["outcomes"], result["units"]
    else:
        result = run_untraced(workload, args.seed, args.seconds)
        outcomes, units = [result["outcome"]], END_TO_END
    metrics = result["metrics"]
    stamp["loadavg_after"] = list(os.getloadavg())

    print_tables(args.workload, outcomes, result, units)

    correct = is_correct(args.workload, outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "why": workload.why,
        "seed": args.seed, "model_seed": workloads.MODEL_SEED,
        "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "details": result["details"],
    }
    path = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    stop_resource_tracker()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
