"""Diagnosis feedback loop: weighted Algorithm-1 vs uniform scheduling.

The closed loop the diagnosis subsystem exists for: run a uniform
Algorithm-1 training (the paper's ``R-uniform-2`` random scheduling —
two rates drawn uniformly per batch), diagnose it (error-slice
discovery over the narrowest profile's mistakes), then retrain a fresh
model from the *identical* initialization and batch stream with
:class:`~repro.diagnose.DiagnosisWeightedScheme` built from the
report.  Both runs train exactly two subnets per batch — the weighted
run spends them as the statically included widest profile plus one
draw weighted by diagnosed worst-slice error.  The claim asserted
here: averaged over seeds, the weighted run's accuracy on the
diagnosed worst data slice at the lowest trained rate (slice
membership frozen from the pilot report) beats the uniform run's, and
it wins at least as many seeds as it loses.

Everything is seeded, so the per-seed deltas — and this benchmark's
outcome — are deterministic.  Set ``REPRO_DIAGNOSE_SMOKE=1`` (CI does)
for a smaller run.  Results go to ``BENCH_diagnose.json`` (smoke runs:
``BENCH_diagnose.smoke.json``) and EXPERIMENTS.md.
"""

import json
import os

import numpy as np
import pytest

from repro.diagnose import (
    collect_eval_records,
    correctness_by_profile,
    diagnose,
    make_demo_data,
    profile_key,
    train_demo_model,
)
from repro.slicing import PlanCache
from repro.slicing.schemes import RandomScheme
from repro.utils import format_table

SMOKE = os.environ.get("REPRO_DIAGNOSE_SMOKE") == "1"
RATES = (0.25, 0.5, 0.75, 1.0)
SEEDS = range(3) if SMOKE else range(6)
EPOCHS = 6
NUM_TRAIN = 512
NUM_EVAL = 512
SLICES = 2
FLOOR = 0.05


def _worst_slice_accuracy(model, data, report):
    """Accuracy on the report's worst slice at the lowest rate, frozen."""
    records, _ = collect_eval_records(
        model, data["eval_x"], data["eval_y"], [min(RATES)],
        plan_cache=PlanCache())
    correct = correctness_by_profile(
        records, len(data["eval_y"]))[profile_key(min(RATES))]
    return min(float(np.mean(correct[s.member_ids]))
               for s in report.slices)


def _run_seed(seed):
    data = make_demo_data(seed, num_train=NUM_TRAIN, num_eval=NUM_EVAL)

    # Pilot == uniform baseline: R-uniform-2, two subnets per batch.
    uniform_model, _ = train_demo_model(
        seed, epochs=EPOCHS, rates=RATES,
        scheme=RandomScheme(RATES, num_samples=2), data=data)
    report = diagnose(uniform_model, data["eval_x"], data["eval_y"],
                      RATES, k=SLICES, seed=seed)

    # Same init, same batch stream, still two subnets per batch: the
    # widest statically plus one draw weighted by worst-slice error.
    diag_scheme = report.scheme(num_samples=1, floor=FLOOR)
    diag_model, _ = train_demo_model(
        seed, epochs=EPOCHS, rates=RATES, scheme=diag_scheme, data=data)

    uniform_acc = _worst_slice_accuracy(uniform_model, data, report)
    diag_acc = _worst_slice_accuracy(diag_model, data, report)
    return {
        "seed": seed,
        "uniform": round(uniform_acc, 6),
        "weighted": round(diag_acc, 6),
        "delta": round(diag_acc - uniform_acc, 6),
        "scheme_weights": {prof.label(): round(float(w), 6)
                           for prof, w in zip(diag_scheme.rates,
                                              diag_scheme.probabilities)},
        "report_worst_slice_accuracy": report.worst_slice_accuracy,
    }


@pytest.mark.slow
def test_diagnosis_feedback_beats_uniform_scheduling(emit, bench_path):
    results = [_run_seed(seed) for seed in SEEDS]
    deltas = [r["delta"] for r in results]
    mean_delta = float(np.mean(deltas))
    wins = sum(d > 0 for d in deltas)
    losses = sum(d < 0 for d in deltas)

    assert mean_delta > 0, (
        f"weighted scheduling did not improve worst-slice accuracy at "
        f"rate {min(RATES)} on average: deltas {deltas}")
    assert wins >= losses, (
        f"weighted scheduling lost more seeds than it won: {deltas}")

    rows = [[r["seed"], r["uniform"], r["weighted"], r["delta"]]
            for r in results]
    rows.append(["mean",
                 round(float(np.mean([r["uniform"] for r in results])), 4),
                 round(float(np.mean([r["weighted"] for r in results])), 4),
                 round(mean_delta, 4)])
    emit("diagnose_feedback", format_table(
        ["seed", f"uniform@{min(RATES)}", f"weighted@{min(RATES)}",
         "delta"], rows))

    with open(bench_path("diagnose", SMOKE), "w") as handle:
        json.dump({
            "benchmark": "diagnose_feedback",
            "config": {
                "rates": list(RATES),
                "epochs": EPOCHS,
                "num_train": NUM_TRAIN,
                "num_eval": NUM_EVAL,
                "slices": SLICES,
                "floor": FLOOR,
                "seeds": list(SEEDS),
                "passes_per_batch": 2,
                "smoke": SMOKE,
            },
            "per_seed": results,
            "mean_delta": round(mean_delta, 6),
            "wins": wins,
            "losses": losses,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
