"""Smoke tests for the experiment suites on tiny configurations.

These exercise the full suite code paths (training, caching, telemetry,
JSON round-trip) in seconds, so protocol regressions surface in the test
suite rather than in a 20-minute benchmark run.
"""

import pytest

from repro.experiments import (
    ExperimentCache,
    ImageExperimentConfig,
    ServingExperimentConfig,
    TextExperimentConfig,
)
from repro.experiments import (
    ablation_suite,
    cascade_suite,
    nnlm_suite,
    resnet_suite,
    serving_suite,
    vgg_suite,
)
from repro.experiments.cache import experiment_key


@pytest.fixture()
def tiny_image_cfg():
    return ImageExperimentConfig(
        train_size=96, test_size=64, epochs=2, vgg_width=8,
        rates=[0.5, 1.0], coarse_rates=[0.5, 1.0], lower_bound=0.5,
    )


@pytest.fixture()
def tiny_text_cfg():
    return TextExperimentConfig(
        vocab_size=60, train_tokens=1500, valid_tokens=400, test_tokens=400,
        embed_dim=12, hidden_size=12, epochs=1, rates=[0.5, 1.0],
        lower_bound=0.5,
    )


@pytest.fixture()
def cache(tmp_path):
    return ExperimentCache(root=str(tmp_path))


class TestVggSuite:
    def test_sliced_experiment_structure(self, tiny_image_cfg, cache):
        result = vgg_suite.sliced_vgg_experiment(tiny_image_cfg, cache)
        assert set(result["accuracy"]) == {"0.5", "1.0"}
        assert len(result["labels"]) == tiny_image_cfg.test_size
        assert len(result["learning_curve"]) == tiny_image_cfg.epochs
        assert result["costs"]["0.5"]["flops_fraction"] < 0.5
        # Telemetry probes recorded one snapshot per epoch.
        for snapshots in result["gn_scale_history"].values():
            assert len(snapshots) == tiny_image_cfg.epochs

    def test_result_cached(self, tiny_image_cfg, cache):
        first = vgg_suite.sliced_vgg_experiment(tiny_image_cfg, cache)
        second = vgg_suite.sliced_vgg_experiment(tiny_image_cfg, cache)
        assert first == second

    def test_config_change_invalidates_key(self, tiny_image_cfg):
        import dataclasses
        other = dataclasses.replace(tiny_image_cfg, epochs=3)
        assert experiment_key("vgg_sliced", tiny_image_cfg) != \
            experiment_key("vgg_sliced", other)

    def test_direct_slicing_structure(self, tiny_image_cfg, cache):
        result = vgg_suite.direct_slicing_experiment(tiny_image_cfg, cache)
        assert set(result["accuracy"]) == {"0.5", "1.0"}


class TestNnlmSuite:
    def test_table2_structure(self, tiny_text_cfg, cache):
        result = nnlm_suite.nnlm_experiment(tiny_text_cfg, cache)
        for row in ("ppl_direct", "ppl_sliced", "ppl_fixed"):
            assert set(result[row]) == {"0.5", "1.0"}
            for value in result[row].values():
                assert value > 1.0
        assert result["flops"]["0.5"] < result["flops"]["1.0"]

    def test_evaluate_ppl_uniform_baseline(self, tiny_text_cfg):
        streams = nnlm_suite.build_text_task(tiny_text_cfg)
        model = nnlm_suite.make_nnlm(tiny_text_cfg, seed=3)
        ppl = nnlm_suite.evaluate_ppl(model, streams["test"],
                                      tiny_text_cfg, 1.0)
        # An untrained model sits near the uniform perplexity.
        assert 0.5 * tiny_text_cfg.vocab_size < ppl \
            < 2.0 * tiny_text_cfg.vocab_size


class TestResnetSuite:
    @pytest.fixture()
    def tiny_resnet_cfg(self):
        return ImageExperimentConfig(
            train_size=96, test_size=64, epochs=1, resnet_blocks=1,
            resnet_base_channels=8, rates=[0.5, 1.0],
            coarse_rates=[0.5, 1.0], lower_bound=0.5,
        )

    def test_sliced_resnet_structure(self, tiny_resnet_cfg, cache):
        result = resnet_suite.sliced_resnet_experiment(tiny_resnet_cfg,
                                                       cache)
        assert set(result["accuracy"]) == {"0.5", "1.0"}
        assert result["flops"]["0.5"] < result["flops"]["1.0"]

    def test_multi_classifier_structure(self, tiny_resnet_cfg, cache):
        result = resnet_suite.multi_classifier_experiment(tiny_resnet_cfg,
                                                          cache)
        exits = result["exits"]
        assert len(exits) == 2
        assert exits["0"]["flops"] < exits["1"]["flops"]

    def test_skipnet_structure(self, tiny_resnet_cfg, cache):
        result = resnet_suite.skipnet_experiment(tiny_resnet_cfg, cache,
                                                 penalties=(0.1,))
        point = result["points"]["0.1"]
        assert 0.0 <= point["accuracy"] <= 1.0
        assert point["flops_per_sample"] > 0
        assert 0.0 <= point["execution_fraction"] <= 1.0


class TestVggSuiteBaselines:
    def test_depth_ensemble_structure(self, tiny_image_cfg, cache):
        result = vgg_suite.depth_ensemble_experiment(tiny_image_cfg, cache)
        assert len(result["members"]) == 3
        for member in result["members"].values():
            assert 0.0 <= member["accuracy"] <= 1.0
            assert member["flops"] > 0
        flops = [m["flops"] for m in result["members"].values()]
        assert len(set(flops)) == len(flops)  # genuinely different depths

    def test_slimming_structure(self, tiny_image_cfg, cache):
        result = vgg_suite.slimming_experiment(tiny_image_cfg, cache,
                                               keep_fractions=(0.5,))
        point = result["points"]["0.5"]
        assert 0.0 <= point["accuracy"] <= 1.0
        assert point["flops"] > 0
        assert point["params"] > 0

    def test_lower_bound_structure(self, tiny_image_cfg, cache):
        result = vgg_suite.lower_bound_experiment(
            tiny_image_cfg, cache, lower_bounds=(0.5, 1.0))
        assert set(result["by_lower_bound"]) == {"0.5", "1.0"}
        for accs in result["by_lower_bound"].values():
            assert set(accs) == {"0.5", "1.0"}


class TestCascadeSuite:
    def test_cascade_rows_consistent(self, tiny_image_cfg, cache):
        result = cascade_suite.cascade_experiment(tiny_image_cfg, cache)
        for rows in (result["model_slicing"], result["cascade_model"]):
            recalls = [row["aggregate_recall"] for row in rows]
            assert recalls == sorted(recalls, reverse=True)
            for row in rows:
                assert row["aggregate_recall"] <= row["precision"] + 1e-9
        assert result["sliced_total_params"] < result["fixed_total_params"]


class TestAblationSuite:
    def test_incremental_ablation_saves_cost(self, cache):
        result = ablation_suite.incremental_ablation(cache)
        for stats in result["pairs"].values():
            assert stats["incremental_madds"] < stats["from_scratch_madds"]
            assert stats["max_abs_error"] < 1e-3


class TestServingSuite:
    def test_serving_experiment_structure(self, tiny_image_cfg, cache):
        scfg = ServingExperimentConfig(duration=20.0, base_rate=50.0,
                                       period=10.0, spike_start=5.0,
                                       spike_duration=2.0)
        result = serving_suite.serving_experiment(tiny_image_cfg, scfg,
                                                  cache)
        assert set(result["policies"]) == {"model_slicing", "fixed_full",
                                           "fixed_small"}
        assert result["volatility"] > 5.0
        elastic = result["policies"]["model_slicing"]
        assert elastic["drop_fraction"] == 0.0

    def test_adaptive_serving_converges(self, tiny_image_cfg, cache):
        scfg = ServingExperimentConfig(duration=30.0, base_rate=80.0,
                                       period=10.0)
        result = serving_suite.adaptive_serving_experiment(
            tiny_image_cfg, scfg, cache)
        assert result["final_estimate"] == pytest.approx(
            result["true_latency"], rel=0.15)
        trajectory = result["estimate_trajectory"]
        assert abs(trajectory[-1] - result["true_latency"]) < \
            abs(trajectory[0] - result["true_latency"])
