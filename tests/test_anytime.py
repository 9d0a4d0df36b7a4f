"""Unit tests for anytime prediction over an approximate resumable plan."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.errors import ConfigError
from repro.models import MLP
from repro.optim import SGD
from repro.slicing import (RandomStaticScheme, SliceTrainer, anytime_predict,
                           scratch_madds, slice_rate)
from repro.tensor import Tensor, no_grad

RATES = [0.25, 0.5, 1.0]


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(12, 4))
    x = rng.normal(size=(768, 12)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    data = ArrayDataset(x[:512], y[:512])
    model = MLP(12, [32, 32], 4, seed=0)
    trainer = SliceTrainer(model, RandomStaticScheme(RATES, num_random=1),
                           SGD(model.parameters(), lr=0.05, momentum=0.9),
                           rng=np.random.default_rng(1))
    for _ in range(25):
        trainer.train_epoch(DataLoader(data, 64, shuffle=True,
                                       rng=np.random.default_rng(2)))
    return model, x[512:], y[512:]


class TestAnytimeRun:
    def test_one_step_per_rate(self, trained):
        model, inputs, _ = trained
        steps = anytime_predict(model, RATES, inputs)
        assert [s["rate"] for s in steps] == RATES

    def test_costs_accumulate(self, trained):
        model, inputs, _ = trained
        total = 0
        for step in anytime_predict(model, RATES, inputs):
            total += step["step_madds"]
            assert step["cumulative_madds"] == total

    def test_reuse_cheaper_than_rerunning_everything(self, trained):
        """Progressive refinement to full width costs less than running
        every rate from scratch, and exactly equals the full-width
        from-scratch cost (each block product is computed once)."""
        model, inputs, _ = trained
        steps = anytime_predict(model, RATES, inputs)
        rerun_total = sum(scratch_madds(model, r, len(inputs))
                          for r in RATES)
        assert steps[-1]["cumulative_madds"] < rerun_total
        assert steps[-1]["cumulative_madds"] == \
            scratch_madds(model, 1.0, len(inputs))

    def test_budget_stops_refinement(self, trained):
        model, inputs, _ = trained
        base_cost = anytime_predict(model, RATES, inputs)[0]["step_madds"]
        steps = anytime_predict(model, RATES, inputs, budget_madds=base_cost)
        assert len(steps) == 1
        assert steps[0]["rate"] == RATES[0]

    def test_base_step_always_runs(self, trained):
        model, inputs, _ = trained
        steps = anytime_predict(model, RATES, inputs, budget_madds=0)
        assert len(steps) == 1

    def test_base_step_matches_sliced_model(self, trained):
        model, inputs, _ = trained
        steps = anytime_predict(model, RATES, inputs[:16])
        with no_grad():
            with slice_rate(RATES[0]):
                expected = model(Tensor(inputs[:16])).data
        np.testing.assert_allclose(steps[0]["logits"], expected,
                                   rtol=1e-4, atol=1e-5)

    def test_refined_logits_approximate_full_model(self, trained):
        """Sec 3.5 approximation: the final refinement is close to (not
        necessarily identical to) the from-scratch full-width pass."""
        model, inputs, _ = trained
        steps = anytime_predict(model, RATES, inputs)
        with no_grad():
            with slice_rate(1.0):
                exact = model(Tensor(inputs)).data
        approx = steps[-1]["logits"]
        agreement = (approx.argmax(axis=1) == exact.argmax(axis=1)).mean()
        assert agreement > 0.8


class TestAnytimeCurve:
    def _accuracies(self, trained):
        model, inputs, labels = trained
        return [float((s["logits"].argmax(axis=1) == labels).mean())
                for s in anytime_predict(model, RATES, inputs)]

    def test_accuracy_improves_with_refinement(self, trained):
        accuracies = self._accuracies(trained)
        assert accuracies[-1] >= accuracies[0] - 0.02
        assert accuracies[-1] > 0.5

    def test_curve_records_costs(self, trained):
        model, inputs, _ = trained
        for step in anytime_predict(model, RATES, inputs):
            assert step["cumulative_madds"] >= step["step_madds"]
            assert scratch_madds(model, step["rate"], len(inputs)) > 0


class TestValidation:
    def test_requires_rates(self):
        with pytest.raises(ConfigError):
            anytime_predict(MLP(4, [8], 2), [], np.zeros((1, 4)))
