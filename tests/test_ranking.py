"""Unit tests for the cascade-ranking pipeline (Sec. 4.2)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ranking import CascadeSimulation, RankingStage


def constant_stage(name, predictions, params=10, flops=100):
    return RankingStage(name=name,
                        predict=lambda inputs: np.asarray(predictions),
                        params=params, flops=flops)


class TestCascadeSimulation:
    LABELS = np.array([0, 1, 2, 0, 1])

    def test_single_stage_precision_equals_recall(self):
        preds = np.array([0, 1, 2, 1, 1])  # 4/5 correct
        sim = CascadeSimulation([constant_stage("s1", preds)])
        (result,) = sim.run(np.zeros((5, 1)), self.LABELS)
        assert result.precision == pytest.approx(0.8)
        assert result.aggregate_recall == pytest.approx(0.8)

    def test_aggregate_recall_is_intersection(self):
        # Stage 1 wrong on item 0; stage 2 wrong on item 1.
        s1 = constant_stage("s1", np.array([1, 1, 2, 0, 1]))
        s2 = constant_stage("s2", np.array([0, 0, 2, 0, 1]))
        sim = CascadeSimulation([s1, s2])
        results = sim.run(np.zeros((5, 1)), self.LABELS)
        assert results[0].aggregate_recall == pytest.approx(0.8)
        assert results[1].aggregate_recall == pytest.approx(0.6)

    def test_aggregate_recall_monotone_nonincreasing(self):
        rng = np.random.default_rng(0)
        stages = [constant_stage(f"s{i}", rng.integers(0, 3, size=5))
                  for i in range(4)]
        results = CascadeSimulation(stages).run(np.zeros((5, 1)), self.LABELS)
        recalls = [r.aggregate_recall for r in results]
        assert recalls == sorted(recalls, reverse=True)

    def test_consistent_stages_lose_nothing(self):
        """Identical predictions across stages: recall stays at precision."""
        preds = np.array([0, 1, 2, 1, 1])
        stages = [constant_stage(f"s{i}", preds) for i in range(3)]
        results = CascadeSimulation(stages).run(np.zeros((5, 1)), self.LABELS)
        assert results[-1].aggregate_recall == results[0].precision

    def test_totals(self):
        sim = CascadeSimulation([
            constant_stage("a", self.LABELS, params=5, flops=50),
            constant_stage("b", self.LABELS, params=7, flops=70),
        ])
        assert sim.total_params() == 12
        assert sim.total_flops() == 120

    def test_empty_cascade_rejected(self):
        with pytest.raises(ConfigError):
            CascadeSimulation([])

    def test_bad_prediction_shape_rejected(self):
        stage = RankingStage("bad", lambda x: np.zeros((2, 2)), 1, 1)
        with pytest.raises(ConfigError):
            CascadeSimulation([stage]).run(np.zeros((5, 1)), self.LABELS)


class TestModelBackedStages:
    def test_sliced_model_stages_predict(self, rng):
        from repro.models import MLP
        from repro.ranking import sliced_model_stages

        model = MLP(6, [16], 3)
        rates = [0.5, 1.0]
        stages = sliced_model_stages(
            model, rates,
            flops_of_rate={0.5: 10, 1.0: 40},
            params_of_rate={0.5: 5, 1.0: 20},
        )
        inputs = rng.normal(size=(4, 6)).astype(np.float32)
        labels = np.zeros(4, dtype=int)
        results = CascadeSimulation(stages).run(inputs, labels)
        assert len(results) == 2
        assert results[0].name == "Subnet-0.5"
        assert results[0].flops == 10

    def test_fixed_model_stages_predict(self, rng):
        from repro.models import MLP
        from repro.ranking import fixed_model_stages

        members = {0.5: MLP(6, [16], 3, seed=1), 1.0: MLP(6, [16], 3, seed=2)}
        stages = fixed_model_stages(
            members,
            flops_of_rate={0.5: 10, 1.0: 40},
            params_of_rate={0.5: 5, 1.0: 20},
        )
        inputs = rng.normal(size=(4, 6)).astype(np.float32)
        results = CascadeSimulation(stages).run(inputs, np.zeros(4, dtype=int))
        assert results[1].name == "Fixed-1.0"
