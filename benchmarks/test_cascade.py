"""Confidence cascade vs fixed profiles: accuracy per FLOP, served.

The serving claim behind the cascade subsystem, measured end to end on
the seeded demo workload (planted easy/hard regions):

* **Batch level** — escalating only low-margin rows makes the cascade's
  measured accuracy beat every fixed profile that spends no more mean
  multiply-adds per request, and *incremental* escalation (resume the
  retained narrow pass via ``ResumablePlan.subset().widen()``) spends
  strictly fewer multiply-adds than recomputing the escalated rows from
  scratch on canonical resumable plans, while producing bit-identical
  predictions (exact mode).  The served default (escalated rows
  recomputed on cached compiled BLAS plans) is reported beside it: its
  multiply-adds, accuracy and argmax agreement with the exact cascade,
  as measured.
* **Runtime level** — served through the event-driven runtime against
  the same arrival trace, the cascade policy's goodput-weighted
  accuracy beats every fixed profile whose per-request cost fits the
  cascade's mean FLOPs budget (the widest profile is reported as the
  reference ceiling it approaches at roughly half the cost).

* **Seconds** — on the same eval batch, the wall-clock seconds per
  request of the served cascade, of the incremental cascade, of the
  canonical recompute-on-escalation comparator and of each fixed
  compiled plan (median of ``TIMING_REPEATS`` runs), with the machine
  they ran on.  Only within-run ratios are asserted: the served cascade
  is faster than the incremental one, and incremental escalation costs
  at most twice canonical recomputation (both run the canonical GEMM;
  the served path runs BLAS, so that gate does not apply to it).  The
  fixed full-width compiled plan may still beat the cascade in seconds;
  the benchmark records that rather than hiding it.

Everything except the seconds is seeded and deterministic.  Set
``REPRO_PLAN_SMOKE=1`` (CI does) for a smaller run.  Results go to
``BENCH_cascade.json`` (smoke runs: ``BENCH_cascade.smoke.json``) and
EXPERIMENTS.md.
"""

import json
import os
import time

import numpy as np

from repro.diagnose.demo import DEMO_RATES, train_demo_model
from repro.runtime import (
    CascadeExecutor,
    CascadeStage,
    InferenceRuntime,
    LatencyProfile,
    Replica,
    ReplicaPool,
    RuntimeConfig,
    margins_of,
)
from repro.serving import (
    CascadeController,
    FixedRateController,
    diurnal_rate,
    generate_arrivals,
    spike_rate,
)
from repro.slicing import ResumablePlan, compile_plan, scratch_madds
from repro.utils import format_table

SMOKE = os.environ.get("REPRO_PLAN_SMOKE") == "1" \
    or os.environ.get("REPRO_CASCADE_SMOKE") == "1"
RATES = list(DEMO_RATES)
THRESHOLDS = [1.0] * (len(RATES) - 1)
EPOCHS = 3 if SMOKE else 6
FULL_LATENCY = 0.002
SLO = 0.1
DURATION = 8.0 if SMOKE else 20.0
REPLICAS = 2
SEED = 0
TIMING_REPEATS = 9


def _stages():
    stages = [CascadeStage(rate, threshold)
              for rate, threshold in zip(RATES[:-1], THRESHOLDS)]
    stages.append(CascadeStage(RATES[-1]))
    return stages


def _serve(model, inputs, labels, accuracy, controller, cascade,
           arrivals):
    pool = ReplicaPool(
        [Replica(f"r{i}", LatencyProfile(FULL_LATENCY), model=model)
         for i in range(REPLICAS)], seed=SEED)
    if cascade is not None:
        pool.warm_cascade(cascade)
    config = RuntimeConfig(latency_slo=SLO, max_batch_size=400, seed=SEED)
    runtime = InferenceRuntime(pool, controller, config, accuracy,
                               inputs=inputs, labels=labels,
                               cascade=cascade)
    return runtime.run(arrivals, DURATION)


def _canonical_recompute(model, inputs):
    """Recompute-on-escalation on from-scratch resumable plans.

    The exact cascade's cost comparator: same thresholds, each stage a
    fresh canonical-GEMM pass over the rows that reached it.  Returns
    ``(predictions, spent multiply-adds)``.
    """
    stages = _stages()
    plan = ResumablePlan(model, stages[0].rate)
    logits = plan.run(inputs)
    predictions = np.argmax(logits, axis=-1)
    spent = plan.spent_madds
    rows = np.arange(len(inputs))
    for stage, wider in zip(stages, stages[1:]):
        rows = rows[margins_of(logits) < stage.threshold]
        if not len(rows):
            break
        plan = ResumablePlan(model, wider.rate)
        logits = plan.run(inputs[rows])
        predictions[rows] = np.argmax(logits, axis=-1)
        spent += plan.spent_madds
    return predictions, spent


def _median_seconds(fn) -> float:
    """Median wall-clock seconds of ``fn()`` over ``TIMING_REPEATS`` calls."""
    fn()  # warm-up
    times = []
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _machine() -> dict:
    """What the seconds were measured on."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
    }


def test_cascade_beats_fixed_profiles(emit, bench_path):
    model, data = train_demo_model(seed=SEED, epochs=EPOCHS)
    inputs = data["eval_x"].astype(np.float32)
    labels = data["eval_y"]
    n = len(labels)

    # -- batch level: accuracy per multiply-add ------------------------
    fixed = {}
    for rate in RATES:
        logits = ResumablePlan(model, rate).run(inputs)
        fixed[rate] = {
            "accuracy": float(np.mean(np.argmax(logits, -1) == labels)),
            "madds_per_request": scratch_madds(model, rate),
        }

    incremental = CascadeExecutor(model, _stages(), incremental=True)
    result = incremental.run_batch(inputs)
    recompute_predictions, recompute_spent = _canonical_recompute(
        model, inputs)
    served = CascadeExecutor(model, _stages())
    served_result = served.run_batch(inputs)

    cascade_accuracy = float(np.mean(result.predictions == labels))
    cascade_madds = result.spent_madds / n
    recompute_madds = recompute_spent / n
    served_accuracy = float(np.mean(served_result.predictions == labels))
    served_agreement = float(np.mean(
        served_result.predictions == result.predictions))

    # Incremental escalation: same predictions, strictly cheaper.
    np.testing.assert_array_equal(result.predictions, recompute_predictions)
    assert result.escalated_rows > 0
    assert result.spent_madds < recompute_spent, (
        f"incremental escalation spent {result.spent_madds} madds, "
        f"recompute baseline {recompute_spent}")

    # The cascade never spends more than the widest fixed profile, and
    # beats every fixed profile that is at least as cheap per request.
    assert cascade_madds <= fixed[RATES[-1]]["madds_per_request"]
    cheaper = [rate for rate in RATES
               if fixed[rate]["madds_per_request"] <= cascade_madds]
    assert cheaper, "no fixed profile within the cascade's budget"
    for rate in cheaper:
        assert cascade_accuracy > fixed[rate]["accuracy"], (
            f"cascade {cascade_accuracy:.3f} does not beat fixed-{rate} "
            f"{fixed[rate]['accuracy']:.3f} at <= its FLOPs")

    # -- seconds per request on the same batch -------------------------
    seconds = {
        "served": _median_seconds(lambda: served.run_batch(inputs)),
        "incremental": _median_seconds(
            lambda: incremental.run_batch(inputs)),
        "recompute": _median_seconds(
            lambda: _canonical_recompute(model, inputs)),
    }
    for rate in RATES:
        plan = compile_plan(model, rate)
        seconds[f"fixed-{rate:g}"] = _median_seconds(
            lambda: plan.run(inputs))
    assert seconds["incremental"] <= 2 * seconds["recompute"], (
        f"incremental cascade {seconds['incremental'] * 1e3:.2f} ms vs "
        f"recompute-on-escalation {seconds['recompute'] * 1e3:.2f} ms")
    assert seconds["served"] < seconds["incremental"], (
        f"served cascade {seconds['served'] * 1e3:.2f} ms vs "
        f"incremental {seconds['incremental'] * 1e3:.2f} ms")

    # -- runtime level: goodput-weighted accuracy ----------------------
    calibrated = incremental.calibrate(inputs, labels)
    marginal = {rate: fixed[rate]["accuracy"] for rate in RATES}
    cost = {rate: FULL_LATENCY * rate * rate for rate in RATES}
    intensity = spike_rate(diurnal_rate(60.0, 2.0, 60.0),
                           [(DURATION * 0.25, DURATION * 0.1, 2.0)])
    arrivals = generate_arrivals(intensity, DURATION,
                                 np.random.default_rng(SEED))

    reports = {"cascade": _serve(model, inputs, labels, calibrated,
                                 CascadeController(RATES, cost, SLO),
                                 incremental, arrivals)}
    for rate in RATES:
        reports[f"fixed-{rate:g}"] = _serve(
            model, inputs, labels, marginal,
            FixedRateController(rate, FULL_LATENCY, SLO), None, arrivals)
    cascade_report = reports["cascade"]
    for rate in cheaper:
        report = reports[f"fixed-{rate:g}"]
        assert cascade_report.goodput_weighted_accuracy \
            > report.goodput_weighted_accuracy, (
                f"cascade {cascade_report.goodput_weighted_accuracy:.4f} "
                f"did not beat fixed-{rate:g} "
                f"{report.goodput_weighted_accuracy:.4f} at <= its FLOPs")

    # -- report --------------------------------------------------------
    rows = [["cascade", f"{cascade_accuracy:.4f}",
             f"{cascade_madds:.0f}",
             f"{cascade_report.goodput_weighted_accuracy:.4f}",
             f"{cascade_report.goodput:.1f}",
             f"{cascade_report.escalation_fraction:.2%}"],
            ["served", f"{served_accuracy:.4f}",
             f"{served_result.spent_madds / n:.0f}", "-", "-",
             f"{served_result.escalated_rows / n:.2%}"]]
    for rate in RATES:
        report = reports[f"fixed-{rate:g}"]
        rows.append([
            f"fixed-{rate:g}", f"{fixed[rate]['accuracy']:.4f}",
            f"{fixed[rate]['madds_per_request']}",
            f"{report.goodput_weighted_accuracy:.4f}",
            f"{report.goodput:.1f}", "-"])
    emit("cascade", format_table(
        ["policy", "accuracy", "madds/req", "good*acc", "goodput",
         "escalated"], rows,
        title="Confidence cascade vs fixed profiles"))
    emit("cascade_seconds", format_table(
        ["policy", "us/request"],
        [[name, f"{value / n * 1e6:.3f}"] for name, value in seconds.items()],
        title=f"Wall-clock per request ({n}-row batch, median of "
              f"{TIMING_REPEATS}); served/incremental "
              f"{seconds['served'] / seconds['incremental']:.3f}, "
              f"served-vs-exact argmax agreement {served_agreement:.2%}"))

    with open(bench_path("cascade", SMOKE), "w") as handle:
        json.dump({
            "benchmark": "cascade",
            "config": {
                "rates": RATES,
                "thresholds": THRESHOLDS,
                "epochs": EPOCHS,
                "duration_s": DURATION,
                "replicas": REPLICAS,
                "seed": SEED,
                "smoke": SMOKE,
            },
            "batch": {
                "cascade_accuracy": round(cascade_accuracy, 6),
                "cascade_madds_per_request": round(cascade_madds, 2),
                "recompute_madds_per_request": round(recompute_madds, 2),
                "incremental_spent_madds": result.spent_madds,
                "recompute_spent_madds": recompute_spent,
                "flops_saved": result.flops_saved,
                "exits_per_stage": result.stage_counts(),
                "fixed": {f"{r:g}": fixed[r] for r in RATES},
                "served": {
                    "accuracy": round(served_accuracy, 6),
                    "madds_per_request": round(
                        served_result.spent_madds / n, 2),
                    "exits_per_stage": served_result.stage_counts(),
                    "argmax_agreement_with_exact": round(
                        served_agreement, 6),
                },
            },
            "machine": _machine(),
            "seconds_per_request": {
                "batch_rows": n,
                "repeats": TIMING_REPEATS,
                **{name: float(f"{value / n:.4g}")
                   for name, value in seconds.items()},
                "served_over_incremental": round(
                    seconds["served"] / seconds["incremental"], 4),
            },
            "runtime": {
                name: {
                    "goodput": round(report.goodput, 3),
                    "goodput_weighted_accuracy": round(
                        report.goodput_weighted_accuracy, 6),
                    "drop_fraction": round(report.drop_fraction, 6),
                    "measured_accuracy": report.measured_accuracy,
                    "escalation_fraction": report.escalation_fraction,
                } for name, report in reports.items()},
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
