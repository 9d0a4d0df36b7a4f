"""Anytime prediction application (paper Secs. 1 & 3.5).

A slicing-trained model produces a base-rate answer immediately and
refines it while budget remains, reusing the base computation (the
``y~a ~= ya`` approximation).  Shapes asserted: accuracy is
non-decreasing-ish along refinement, and the cumulative cost of refining
to full width equals ONE full-width pass — not the sum of all passes.
"""

import pytest

pytestmark = pytest.mark.slow

import numpy as np

from repro.data import ArrayDataset, DataLoader
from repro.models import MLP
from repro.optim import SGD
from repro.slicing import (RandomStaticScheme, SliceTrainer, anytime_predict,
                           scratch_madds)
from repro.utils import format_table

RATES = [0.25, 0.5, 0.75, 1.0]


def _train_model(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(16, 4))
    x = rng.normal(size=(1536, 16)).astype(np.float32)
    y = (x @ w + 0.4 * rng.normal(size=(1536, 4))).argmax(axis=1)
    model = MLP(16, [64, 64], 4, seed=seed)
    trainer = SliceTrainer(model, RandomStaticScheme(RATES, num_random=1),
                           SGD(model.parameters(), lr=0.05, momentum=0.9),
                           rng=np.random.default_rng(seed + 1))
    data = ArrayDataset(x[:1024], y[:1024])
    for _ in range(25):
        trainer.train_epoch(DataLoader(data, 64, shuffle=True,
                                       rng=np.random.default_rng(seed + 2)))
    return model, x[1024:], y[1024:]


def test_anytime_prediction(emit, benchmark):
    model, inputs, labels = _train_model()
    curve = [{**step,
              "accuracy": float((step["logits"].argmax(axis=1)
                                 == labels).mean()),
              "from_scratch_madds": scratch_madds(model, step["rate"],
                                                  len(labels))}
             for step in anytime_predict(model, RATES, inputs)]

    rows = [[p["rate"], round(p["accuracy"], 3), p["step_madds"],
             p["cumulative_madds"], p["from_scratch_madds"]]
            for p in curve]
    emit("app_anytime", format_table(
        ["rate", "accuracy", "step madds", "cumulative madds",
         "from-scratch madds"],
        rows, title="Anytime prediction: accuracy vs cumulative cost "
                    "(incremental widening)"))

    # 1. Refinement helps: final accuracy is the best of the curve (within
    #    noise) and clearly above the base step.
    assert curve[-1]["accuracy"] >= curve[0]["accuracy"]
    # 2. Reuse: refining to full width costs exactly one full pass.
    assert curve[-1]["cumulative_madds"] == curve[-1]["from_scratch_madds"]
    # 3. Running every rate from scratch would cost strictly more.
    rerun = sum(p["from_scratch_madds"] for p in curve)
    assert curve[-1]["cumulative_madds"] < rerun
    # 4. Early answers are much cheaper than the full pass.
    assert curve[0]["cumulative_madds"] < \
        0.2 * curve[-1]["from_scratch_madds"]

    # Benchmark: a full anytime run over the evaluation set.
    benchmark.pedantic(lambda: anytime_predict(model, RATES, inputs),
                       rounds=5, iterations=1)
