"""True-parallel serving throughput: worker processes vs the GIL.

The claim behind :class:`repro.runtime.workers.ProcessReplicaPool`:
because every worker process maps the same shared-memory weight arena
zero-copy and compiles plans locally, aggregate requests/sec scales
with cores instead of saturating one interpreter.  This benchmark
pumps a seeded batch stream through ``predict_many`` at worker counts
1/2/4/8 and records wall-clock rows/sec per count.

Each worker count's time is the median of :data:`PASSES` passes over
the stream, so one preempted pass cannot set the ratio.  The speedup
floors (>= 2.5x at 4 workers full, >= 1.3x at 2 workers smoke) only
apply where the process may run on the cores to show them: the CPU
affinity (``os.sched_getaffinity``), not ``os.cpu_count()``, gates the
assertions.  The measured sweep, both core counts and a worker's BLAS
thread count always land in ``BENCH_serving_throughput.json`` so a run
on a bigger box is comparable.  Set ``REPRO_SERVE_SMOKE=1`` (CI does)
for the small sweep, written to ``BENCH_serving_throughput.smoke.json``
instead.  Predictions of every pass are checked byte-identical to an
in-process replica before any timing is trusted.
"""

import json
import os
import statistics
import time

import numpy as np

from repro import MLP
from repro.runtime import LatencyProfile, Replica
from repro.runtime.workers import ProcessReplicaPool
from repro.utils import format_table

SMOKE = os.environ.get("REPRO_SERVE_SMOKE") == "1"
SEED = 0
RATE = 1.0
WINDOW = 4
SWEEP = [1, 2] if SMOKE else [1, 2, 4, 8]
IN_FEATURES = 32 if SMOKE else 64
HIDDEN = [128, 128] if SMOKE else [256, 256]
NUM_CLASSES = 10
BATCHES = 16 if SMOKE else 64
BATCH_ROWS = 64 if SMOKE else 128
PASSES = 9


def _workload():
    model = MLP(in_features=IN_FEATURES, hidden=HIDDEN,
                num_classes=NUM_CLASSES, seed=SEED).eval()
    rng = np.random.default_rng(SEED)
    batches = [rng.normal(size=(BATCH_ROWS, IN_FEATURES))
               .astype(np.float32) for _ in range(BATCHES)]
    return model, batches


def _measure(model, batches, expected, workers: int):
    """Median seconds of :data:`PASSES` passes, and a worker's BLAS threads."""
    seconds = []
    with ProcessReplicaPool(model, workers, seed=SEED) as pool:
        pool.warm_plans([RATE])
        pool.predict_many(batches[:workers], RATE, window=WINDOW)  # warm IPC
        for _ in range(PASSES):
            start = time.perf_counter()
            results = pool.predict_many(batches, RATE, window=WINDOW)
            seconds.append(time.perf_counter() - start)
            for got, want in zip(results, expected):   # correctness first
                np.testing.assert_array_equal(got, want)
        blas = pool.worker_stats()[0]["blas_threads"]
    elapsed = statistics.median(seconds)
    rows = sum(len(batch) for batch in batches)
    return elapsed, rows / elapsed, blas


def test_serving_throughput(emit, bench_path):
    model, batches = _workload()
    reference = Replica("ref", LatencyProfile(1.0), model=model)
    expected = [reference.predict(batch, RATE) for batch in batches]

    cores = len(os.sched_getaffinity(0))
    sweep = {}
    for workers in SWEEP:
        elapsed, rps, worker_blas = _measure(model, batches, expected,
                                             workers)
        sweep[workers] = {"workers": workers,
                          "seconds": round(elapsed, 4),
                          "rows_per_sec": round(rps, 1)}
    for workers, record in sweep.items():
        record["speedup_vs_1"] = round(
            record["rows_per_sec"] / sweep[1]["rows_per_sec"], 3)

    rows = [[str(w), f"{r['seconds']:.3f}", f"{r['rows_per_sec']:.0f}",
             f"{r['speedup_vs_1']:.2f}x"] for w, r in sweep.items()]
    emit("serving_throughput", format_table(
        ["workers", "seconds", "rows/sec", "speedup"], rows,
        title=f"Process-pool serving throughput ({cores} usable cores, "
              f"{'smoke' if SMOKE else 'full'})"))

    with open(bench_path("serving_throughput", SMOKE), "w") as handle:
        json.dump({
            "benchmark": "serving_throughput",
            "config": {
                "smoke": SMOKE,
                "rate": RATE,
                "window": WINDOW,
                "batches": BATCHES,
                "batch_rows": BATCH_ROWS,
                "in_features": IN_FEATURES,
                "hidden": HIDDEN,
                "num_classes": NUM_CLASSES,
                "seed": SEED,
                "passes": PASSES,
            },
            "machine": {"cpu_count": os.cpu_count(),
                        "affinity": cores,
                        "worker_blas_threads": worker_blas},
            "sweep": [sweep[w] for w in SWEEP],
        }, handle, indent=2)
        handle.write("\n")

    # Scaling floors, only where the process may use the cores.
    if SMOKE:
        if cores >= 2:
            assert sweep[2]["speedup_vs_1"] >= 1.3, (
                f"2 workers on {cores} cores sped up only "
                f"{sweep[2]['speedup_vs_1']:.2f}x (floor 1.3x)")
    elif cores >= 4:
        assert sweep[4]["speedup_vs_1"] >= 2.5, (
            f"4 workers on {cores} cores sped up only "
            f"{sweep[4]['speedup_vs_1']:.2f}x (floor 2.5x)")
