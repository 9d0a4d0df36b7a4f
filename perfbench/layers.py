"""Per-layer probes for the traced run.

Every probe times calls into one layer's public entry points from
outside (``time.perf_counter`` around the call, median over repeats)
and reads the obs counters the program already exports.  The probes
use the same generated inputs as the workloads; where a layer lives in
a worker process, the request is replayed in-process to split the
round trip into compute and overhead.

:data:`SHOULD_MOVE` records, per metric prefix, which end-to-end metric
on which workload a change to that layer should move.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import MLP, obs
from repro.metrics.flops import measured_flops
from repro.models.transformer import TransformerEncoder
from repro.models.vgg import SlicedVGG
from repro.runtime.cascade import CascadeExecutor, margins_of
from repro.runtime.replica import LatencyProfile, Replica
from repro.slicing.plans import (AttentionBlockStep, ConvStep, DenseStep,
                                 FFNBlockStep, LinearStep, PlanCache,
                                 compile_plan)
from repro.slicing.resume import ResumablePlan
from repro.tensor.shared import SharedArena

import workloads as wl

#: (metric prefix, end-to-end metric it should move, workload).
SHOULD_MOVE = [
    ("workers.", "latency_p50_ms, rows_per_s", "serve_small, cascade"),
    ("shared.refresh_us", "latency_p50_ms", "serve_small"),
    ("shared.arena_mb", "memory_mb", "serve_small, serve_batch, cascade"),
    ("workers.pss_mb", "memory_mb", "serve_small, serve_batch, cascade"),
    ("plans.cache_get_us", "latency_p50_ms", "serve_small"),
    ("plans.run_us.mlp", "latency_p50_ms", "serve_small"),
    ("plans.step_us.mlp", "latency_p50_ms", "serve_small"),
    ("plans.step_gmadds.mlp", "latency_p50_ms", "serve_small"),
    ("plans.run_us.", "rows_per_s", "serve_batch"),
    ("plans.step_", "rows_per_s", "serve_batch"),
    ("plans.compile_ms", "setup_s", "all"),
    ("resume.", "latency_p50_ms, rows_per_s", "cascade"),
    ("cascade.", "latency_p50_ms, rows_per_s (accuracy must not move)",
     "cascade"),
    ("trainer.", "rows_per_s", "train"),
    ("obs.", "none (tracing cost)", "all"),
]

TRAIN_LAYERS = (("conv2d", "forward"), ("conv2d", "backward"),
                ("group_norm", "forward"), ("group_norm", "backward"),
                ("cross_entropy", "forward"), ("cross_entropy", "backward"))
TRAIN_PROBE_STEPS = 8
ROUNDTRIPS = 200


def should_move(name: str) -> tuple[str, str]:
    best = ("", "-", "-")
    for entry in SHOULD_MOVE:
        if name.startswith(entry[0]) and len(entry[0]) > len(best[0]):
            best = entry
    return best[1], best[2]


def median_us(fn, repeats: int, inner: int = 1) -> float:
    """Median per-call microseconds of ``fn`` over ``repeats`` batches."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times) * 1e6


# ----------------------------------------------------------------------
# runtime.workers + tensor.shared + the plan cache (serve_small fixture)
# ----------------------------------------------------------------------
def probe_workers(inputs_small: dict, out: dict) -> None:
    workload = wl.WORKLOADS["serve_small"]
    state = workload.setup(inputs_small)
    try:
        model, pool = state["model"], state["pools"][0]
        local = Replica("local", LatencyProfile(1.0), model=model,
                        plan_cache=PlanCache())
        local.warm_plans(wl.SMALL_PROFILES)
        remote = pool.replicas[0]
        xs, picks = inputs_small["xs"], inputs_small["profiles"]
        requests = [(xs[k], wl.SMALL_PROFILES[picks[k]])
                    for k in range(ROUNDTRIPS)]
        for x, profile in requests[:wl.WARMUP_REQUESTS]:
            remote.predict(x, profile)
        trip = [median_us(lambda: remote.predict(x, p), 1)
                for x, p in requests]
        inproc = [median_us(lambda: local.predict(x, p), 1)
                  for x, p in requests]
        out["workers.roundtrip_us.predict"] = (statistics.median(trip), "us")
        out["workers.overhead_us.predict"] = (
            statistics.median(np.subtract(trip, inproc)), "us")
        out["workers.sync_us"] = (median_us(pool.sync, 50, 200), "us")
        for i, pid in enumerate(wl.worker_pids(pool)):
            out[f"workers.pss_mb.{i}"] = (wl.pss_mb(pid), "MiB")

        cache = PlanCache()
        cache.get(model, 0.5)
        out["plans.cache_get_us"] = (
            median_us(lambda: cache.get(model, 0.5), 50, 200), "us")

        arena = SharedArena.attach(pool.arena.manifest)
        try:
            mirror = MLP(*wl.SMALL_SHAPE, seed=wl.MODEL_SEED).eval()
            arena.adopt(mirror)
            out["shared.refresh_us"] = (
                median_us(lambda: arena.refresh(mirror), 50, 200), "us")
        finally:
            arena.close()
    finally:
        workload.teardown(state)


# ----------------------------------------------------------------------
# slicing.plans (per step, per model)
# ----------------------------------------------------------------------
def step_madds(step, x: np.ndarray, y: np.ndarray) -> int:
    """Multiply-adds of one step call, from its weight shapes."""
    rows = int(np.prod(x.shape[:-1]))
    if isinstance(step, LinearStep):
        return rows * step.weight.size
    if isinstance(step, DenseStep):
        return rows * step.weight.size
    if isinstance(step, ConvStep):
        return x.shape[0] * step.w_mat.size * y.shape[2] * y.shape[3]
    if isinstance(step, AttentionBlockStep):
        tokens = x.shape[1] if step.batch_first else x.shape[0]
        batch = rows // tokens
        scores = 2 * batch * step.heads * tokens * tokens * step.head_dim
        return rows * (step.qkv_weight.size + step.proj_weight.size) + scores
    if isinstance(step, FFNBlockStep):
        return rows * (step.fc1_weight.size + step.fc2_weight.size)
    return 0


def plan_fixtures(inputs_small: dict, inputs_batch: dict) -> dict:
    """Per plan family: the model, a representative request, and the
    array its first plan step receives."""
    small = next(x for x in inputs_small["xs"] if len(x) == wl.SMALL_MAX_ROWS)
    images = inputs_batch["batches"][0]
    vgg = SlicedVGG.cifar_mini(width=16, seed=wl.MODEL_SEED).eval()
    tenc = TransformerEncoder(seed=wl.MODEL_SEED).eval()
    mlp = MLP(*wl.SMALL_SHAPE, seed=wl.MODEL_SEED).eval()
    return {"mlp": (mlp, small, small),
            "vgg": (vgg, images, images),
            "tenc": (tenc, images, tenc.patchify(images))}


def probe_plans(inputs_small: dict, inputs_batch: dict, out: dict,
                table: list) -> None:
    """Plans at rate 1.0, step by step, plus each model's arena size."""
    for name, (model, request, first) in plan_fixtures(
            inputs_small, inputs_batch).items():
        with SharedArena.create(model) as arena:
            out[f"shared.arena_mb.{name}"] = (
                arena.manifest.nbytes / 2 ** 20, "MiB")
        out[f"plans.compile_ms.{name}"] = (
            median_us(lambda: compile_plan(model, 1.0), 5) / 1e3, "ms")
        plan = compile_plan(model, 1.0)
        plan.run(request)
        out[f"plans.run_us.{name}"] = (
            median_us(lambda: plan.run(request), 15), "us")

        per_pass = []
        madds: dict[str, int] = {}
        for _ in range(15):
            x = np.ascontiguousarray(first, dtype=np.float32)
            spent: dict[str, float] = {}
            for step in plan.steps:
                kind = type(step).__name__
                start = time.perf_counter()
                y = step(x)
                spent[kind] = spent.get(kind, 0.0) + time.perf_counter() - start
                madds[kind] = madds.get(kind, 0) + step_madds(step, x, y)
                x = y
            per_pass.append(spent)
        passes = len(per_pass)
        for kind in per_pass[0]:
            seconds = statistics.median(p[kind] for p in per_pass)
            out[f"plans.step_us.{name}.{kind}"] = (seconds * 1e6, "us")
            if madds[kind]:
                out[f"plans.step_gmadds.{name}.{kind}"] = (
                    madds[kind] / passes / seconds / 1e9, "Gmadd/s")
        total = sum(madds.values()) // passes
        shape = (len(request),) + tuple(np.shape(request)[1:])
        table.append((name, total, measured_flops(model, shape, 1.0)))


# ----------------------------------------------------------------------
# slicing.resume + runtime.cascade (cascade fixture)
# ----------------------------------------------------------------------
def probe_cascade(inputs_cascade: dict, out: dict) -> None:
    workload = wl.WORKLOADS["cascade"]
    state = workload.setup(inputs_cascade)
    try:
        model, executor = state["model"], state["executor"]
        remote = state["pools"][0].replicas[0]
        recompute = CascadeExecutor(model, wl.CASCADE_STAGES,
                                    incremental=False)
        full = compile_plan(model, 1.0)
        xs = inputs_cascade["xs"][:8]
        x = xs[0]
        stages = [s.rate for s in wl.CASCADE_STAGES]

        def fresh(profile):
            plan = ResumablePlan(model, profile)
            plan.run(x)
            return plan

        out["resume.run_us"] = (median_us(lambda: fresh(stages[0]), 15), "us")
        narrow = fresh(stages[0])
        unsure = np.nonzero(margins_of(narrow.output)
                            < wl.CASCADE_STAGES[0].threshold)[0]
        rows = unsure if len(unsure) else np.arange(len(x))
        out["resume.subset_us"] = (
            median_us(lambda: narrow.subset(rows), 15), "us")
        widen_s, widen_madds = 0.0, 0
        for lo, hi in zip(stages, stages[1:]):
            times = []
            for _ in range(15):
                plan = fresh(lo)
                spent = plan.spent_madds
                start = time.perf_counter()
                plan.widen(hi)
                times.append(time.perf_counter() - start)
            seconds = statistics.median(times)
            out[f"resume.widen_us.{lo:g}-{hi:g}"] = (seconds * 1e6, "us")
            widen_s += seconds
            widen_madds += plan.spent_madds - spent
        out["resume.widen_gmadds"] = (widen_madds / widen_s / 1e9, "Gmadd/s")

        results = [executor.run_batch(batch) for batch in xs]
        total = sum(len(r) for r in results)
        out["cascade.escalated_frac"] = (
            sum(r.escalated_rows for r in results) / total, "fraction")
        out["cascade.madds_per_row"] = (
            sum(r.spent_madds for r in results) / total, "madds")
        out["cascade.run_batch_us"] = (
            median_us(lambda: executor.run_batch(x), 15), "us")
        out["cascade.recompute_us"] = (
            median_us(lambda: recompute.run_batch(x), 15), "us")
        out["cascade.full_plan_us"] = (
            median_us(lambda: full.run(x), 15), "us")

        for batch in xs[:2]:
            remote.run_cascade(batch)
        trip = [median_us(lambda: remote.run_cascade(b), 1) for b in xs * 4]
        inproc = [median_us(lambda: executor.run_batch(b), 1)
                  for b in xs * 4]
        out["workers.roundtrip_us.cascade"] = (statistics.median(trip), "us")
        out["workers.overhead_us.cascade"] = (
            statistics.median(np.subtract(trip, inproc)), "us")
    finally:
        workload.teardown(state)


# ----------------------------------------------------------------------
# slicing.trainer, tensor, optim (train fixture; reads obs counters)
# ----------------------------------------------------------------------
def probe_trainer(inputs_train: dict, out: dict) -> None:
    registry = obs.registry()
    state = wl.WORKLOADS["train"].setup(inputs_train)
    trainer = state["trainer"]
    batches, labels = inputs_train["batches"], inputs_train["labels"]
    before = _train_counters(registry)
    steps, losses = [], []
    for k in range(1, TRAIN_PROBE_STEPS + 1):
        start = time.perf_counter()
        result = trainer.train_batch(batches[k], labels[k])
        steps.append(time.perf_counter() - start)
        losses.append(result[max(result)])
    after = _train_counters(registry)
    n = TRAIN_PROBE_STEPS
    out["trainer.step_ms"] = (statistics.median(steps) * 1e3, "ms")
    for layer, phase in TRAIN_LAYERS:
        key = (layer, phase)
        out[f"trainer.layer_ms.{layer}.{phase}"] = (
            (after["layers"][key] - before["layers"][key]) / n * 1e3, "ms")
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    out["trainer.ws_hit_frac"] = (hits / (hits + misses), "fraction")
    out["trainer.ws_mb"] = (after["ws_bytes"] / 2 ** 20, "MiB")
    out["trainer.passes_per_step"] = (
        (after["passes"] - before["passes"]) / n, "count")
    out["trainer.loss"] = (float(np.mean(losses)), "nats")


def _train_counters(registry) -> dict:
    """The trainer's obs metrics (they exist after one traced step)."""
    seconds = registry.get("train_layer_seconds")
    return {
        "layers": {(layer, phase): seconds.sum(layer=layer, phase=phase)
                   for layer, phase in TRAIN_LAYERS},
        "hits": registry.get("train_ws_pool_hits_total").total(),
        "misses": registry.get("train_ws_pool_misses_total").total(),
        "passes": registry.get("train_rate_scheduled_total").total(),
        "ws_bytes": registry.get("train_ws_bytes").value(),
    }


def probe_all(seed: int) -> tuple[dict, list]:
    """Every per-layer metric; obs must be enabled by the caller."""
    inputs = {name: w.generate(seed) for name, w in wl.WORKLOADS.items()}
    out: dict = {}
    flops_table: list = []
    with obs.span("perfbench.layer", layer="runtime.workers"):
        probe_workers(inputs["serve_small"], out)
    with obs.span("perfbench.layer", layer="slicing.plans"):
        probe_plans(inputs["serve_small"], inputs["serve_batch"], out,
                    flops_table)
    with obs.span("perfbench.layer", layer="slicing.resume"):
        probe_cascade(inputs["cascade"], out)
    with obs.span("perfbench.layer", layer="slicing.trainer"):
        probe_trainer(inputs["train"], out)
    return out, flops_table
