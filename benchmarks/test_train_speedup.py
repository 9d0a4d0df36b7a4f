"""Training fast-path speedup over the reference autograd loop.

The training fast path (:class:`repro.slicing.trainer.SliceTrainer` with
``fast_path=True``) pools conv workspace buffers across batches, shares
the unsliced input's im2col columns across the slice rates of one
Algorithm-1 step, and swaps in fused GroupNorm / cross-entropy / pooling
kernels.  This benchmark measures the payoff on the VGG-GN training
configuration and *asserts* the tentpole's acceptance bar: a >= 2x
median train_batch speedup at CIFAR scale.

Reference and fast steps are interleaved in a single loop so both see
the same thermal/scheduler conditions, and the median is compared (the
single-core box has heavy timing noise).  The measured numbers are also
written to ``BENCH_train_step.json`` at the repo root so the speedup is
tracked across commits.

Set ``REPRO_TRAIN_SMOKE=1`` (CI does) for a quick, noise-tolerant run:
a smaller input, fewer repeats and a relaxed 1.2x assertion, written to
``BENCH_train_step.smoke.json`` instead.
"""

import json
import os
import time

import numpy as np

from repro.models import SlicedVGG
from repro.optim import SGD
from repro.slicing import RandomStaticScheme
from repro.slicing.trainer import SliceTrainer
from repro.utils import format_table

SMOKE = os.environ.get("REPRO_TRAIN_SMOKE") == "1"
REPEATS = 5 if SMOKE else 9
WARMUP = 2
MIN_SPEEDUP = 1.2 if SMOKE else 2.0
BATCH = 16 if SMOKE else 64
IMAGE = 16 if SMOKE else 32
RATES = (0.25, 0.5, 0.75, 1.0)


def _make_trainer(fast):
    model = SlicedVGG.cifar_mini(num_classes=8, width=16, seed=0)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=5e-4)
    return SliceTrainer(model, RandomStaticScheme(list(RATES)), optimizer,
                        rng=np.random.default_rng(7), fast_path=fast)


def test_train_step_speedup(emit, bench_path):
    ref = _make_trainer(False)
    fast = _make_trainer(True)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(BATCH, 3, IMAGE, IMAGE)).astype(np.float32)
    y = rng.integers(0, 8, size=BATCH)

    for _ in range(WARMUP):
        ref.train_batch(x, y)
        fast.train_batch(x, y)
    ref_times, fast_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        ref.train_batch(x, y)
        ref_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fast.train_batch(x, y)
        fast_times.append(time.perf_counter() - start)

    ref_ms = float(np.median(ref_times)) * 1e3
    fast_ms = float(np.median(fast_times)) * 1e3
    speedup = ref_ms / fast_ms
    stats = fast.arena.stats()

    emit("train_step_speedup", format_table(
        ["path", "median ms", "min ms", "steps/s"],
        [["reference", f"{ref_ms:.1f}", f"{min(ref_times) * 1e3:.1f}",
          f"{1e3 / ref_ms:.2f}"],
         ["fast", f"{fast_ms:.1f}", f"{min(fast_times) * 1e3:.1f}",
          f"{1e3 / fast_ms:.2f}"],
         ["speedup", f"{speedup:.2f}x", "", ""]]))

    with open(bench_path("train_step", SMOKE), "w") as handle:
        json.dump({
            "benchmark": "train_step",
            "smoke": SMOKE,
            "config": {"model": "SlicedVGG.cifar_mini(width=16)",
                       "batch": BATCH, "image": IMAGE,
                       "rates": list(RATES), "repeats": REPEATS},
            "reference_ms": round(ref_ms, 3),
            "fast_ms": round(fast_ms, 3),
            "speedup": round(speedup, 3),
            "steps_per_second": {"reference": round(1e3 / ref_ms, 3),
                                 "fast": round(1e3 / fast_ms, 3)},
            "arena": {"bytes": stats["bytes"],
                      "pool_hits": stats["pool_hits"],
                      "pool_misses": stats["pool_misses"],
                      "col_reuses": stats["col_reuses"]},
        }, handle, indent=2)
        handle.write("\n")

    assert speedup >= MIN_SPEEDUP, (
        f"train_batch fast-path speedup was {speedup:.2f}x, "
        f"needs >= {MIN_SPEEDUP}x (reference {ref_ms:.1f} ms, "
        f"fast {fast_ms:.1f} ms)")
