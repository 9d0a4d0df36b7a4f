"""Tests for the slice-quality diagnostics subsystem (repro.diagnose)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.diagnose import (
    DiagnosisWeightedScheme,
    capture_activations,
    collect_eval_records,
    correctness_by_profile,
    deterministic_kmeans,
    diagnose,
    discover_error_slices,
    importance_from_attribution,
    layer_divergence,
    penultimate_embedding,
    profile_key,
    rank_attribution,
    records_from_trace,
    train_demo_model,
    worst_slice_accuracy,
)
from repro.errors import DataError, SchedulingError
from repro.models import MLP
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import load_records
from repro.slicing import LayerProfile
from repro.slicing.plans import PlanCache


@pytest.fixture(autouse=True)
def _isolated_obs():
    obs.disable()
    obs._registry = MetricsRegistry()
    obs._tracer = obs.Tracer()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def trained():
    """One small trained demo model shared across this module."""
    model, data = train_demo_model(seed=0, epochs=3)
    return model, data


RATES = (0.25, 0.5, 1.0)


# ---------------------------------------------------------------------------
class TestDeterministicKmeans:
    def test_permutation_stability(self):
        points = np.random.default_rng(3).normal(size=(60, 5))
        centroids, assignment = deterministic_kmeans(points, 4)
        perm = np.random.default_rng(4).permutation(len(points))
        centroids2, assignment2 = deterministic_kmeans(points[perm], 4)
        assert np.allclose(centroids, centroids2)
        assert (assignment[perm] == assignment2).all()

    def test_k_exceeding_distinct_points_clamps(self):
        points = np.asarray([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        centroids, assignment = deterministic_kmeans(points, 10)
        assert len(centroids) == 2
        assert assignment[0] == assignment[1] != assignment[2]

    def test_k_one_returns_mean(self):
        points = np.asarray([[0.0], [2.0], [4.0]])
        centroids, assignment = deterministic_kmeans(points, 1)
        assert np.allclose(centroids, [[2.0]])
        assert (assignment == 0).all()

    def test_invalid_inputs_raise(self):
        with pytest.raises(DataError):
            deterministic_kmeans(np.zeros((0, 2)), 2)
        with pytest.raises(DataError):
            deterministic_kmeans(np.zeros((4, 2)), 0)

    def test_separated_blobs_are_recovered(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(loc=0.0, scale=0.1, size=(20, 3))
        blob_b = rng.normal(loc=10.0, scale=0.1, size=(30, 3))
        points = np.concatenate([blob_a, blob_b])
        centroids, assignment = deterministic_kmeans(points, 2)
        # canonical order: bigger cluster (blob_b) first
        assert (assignment[:20] == 1).all()
        assert (assignment[20:] == 0).all()
        assert np.allclose(centroids[0], blob_b.mean(axis=0), atol=0.1)


# ---------------------------------------------------------------------------
class TestErrorSlices:
    def test_planted_error_cluster_is_found_worst_first(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(100, 4))
        emb[:20] += 12.0                      # a coherent far-away region
        narrow = np.ones(100, dtype=bool)
        narrow[:20] = False                   # narrow profile fails there
        full = np.ones(100, dtype=bool)
        slices = discover_error_slices(
            emb, {"0.25": narrow, "1": full}, reference="0.25", k=3)
        assert slices[0].accuracy_by_profile["0.25"] == 0.0
        assert slices[0].accuracy_by_profile["1"] == 1.0
        # the worst slice lies entirely inside the planted region
        assert set(slices[0].member_ids) <= set(range(20))
        # slices partition the evaluation set and account for every error
        assert sum(s.size for s in slices) == 100
        assert sum(s.error_count for s in slices) == 20

    def test_no_errors_yields_single_full_slice(self):
        emb = np.random.default_rng(2).normal(size=(10, 3))
        correct = {"0.5": np.ones(10, dtype=bool),
                   "1": np.ones(10, dtype=bool)}
        slices = discover_error_slices(emb, correct, reference="0.5")
        assert len(slices) == 1
        assert slices[0].size == 10
        assert slices[0].error_count == 0
        assert slices[0].accuracy_by_profile == {"0.5": 1.0, "1": 1.0}

    def test_unknown_reference_raises(self):
        with pytest.raises(DataError):
            discover_error_slices(np.zeros((4, 2)), {"1": np.ones(4)},
                                  reference="0.25")

    def test_worst_slice_accuracy_is_min_over_slices(self):
        emb = np.asarray([[0.0], [0.1], [10.0], [10.1]])
        narrow = np.asarray([False, False, True, True])
        slices = discover_error_slices(emb, {"n": narrow}, reference="n",
                                       k=2)
        assert worst_slice_accuracy(slices)["n"] == 0.0


# ---------------------------------------------------------------------------
class TestAttribution:
    def test_capture_restores_forward_and_records_outputs(self):
        model = MLP(8, [16], 4, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 8))
        from repro.tensor import Tensor
        with capture_activations(model) as acts:
            model(Tensor(x))
        assert set(acts) == {"fc0", "head"}
        assert acts["fc0"].shape == (3, 16)
        # instance shadows removed: forward resolves to the class again
        assert "forward" not in model.fc0.__dict__  # type: ignore[attr-defined]

    def test_capture_unknown_point_raises(self):
        model = MLP(8, [16], 4, seed=0)
        with pytest.raises(DataError):
            with capture_activations(model, ["nope"]):
                pass

    def test_full_rate_divergence_is_zero(self, trained):
        model, data = trained
        divs = layer_divergence(model, data["eval_x"][:32], 1.0)
        for div in divs:
            assert div.divergence == pytest.approx(0.0, abs=1e-9)
            assert div.rel_l2 == pytest.approx(0.0, abs=1e-6)
            assert div.narrow_width == div.full_width

    def test_narrow_divergence_math_matches_direct_computation(self,
                                                               trained):
        model, data = trained
        x = data["eval_x"][:16]
        divs = {d.point: d for d in layer_divergence(model, x, 0.25)}
        from repro.slicing.context import slice_rate
        from repro.tensor import Tensor, no_grad
        with no_grad():
            with slice_rate(1.0):
                with capture_activations(model, ["fc1"]) as full_acts:
                    model(Tensor(x))
            with slice_rate(0.25):
                with capture_activations(model, ["fc1"]) as narrow_acts:
                    model(Tensor(x))
        narrow = narrow_acts["fc1"]
        prefix = full_acts["fc1"][:, :narrow.shape[1]]
        cosine = (narrow * prefix).sum() / np.sqrt(
            (narrow ** 2).sum() * (prefix ** 2).sum())
        assert divs["fc1"].cosine == pytest.approx(cosine, rel=1e-9)
        assert divs["fc1"].divergence == pytest.approx(1.0 - cosine,
                                                       rel=1e-9)
        assert divs["fc1"].narrow_width == 8
        assert divs["fc1"].full_width == 32

    def test_rank_attribution_orders_worst_first(self, trained):
        model, data = trained
        ranked = rank_attribution(
            layer_divergence(model, data["eval_x"][:32], 0.25))
        values = [d.divergence for d in ranked]
        assert values == sorted(values, reverse=True)
        assert [d.rank for d in ranked] == list(range(1, len(ranked) + 1))

    def test_importance_prior_normalizes_to_mean_one(self, trained):
        model, data = trained
        divs = layer_divergence(model, data["eval_x"][:32], 0.25)
        importance = importance_from_attribution(divs, floor=0.1)
        assert set(importance) == {d.point for d in divs}
        assert min(importance.values()) >= 0.1
        meaningful = [v for v in importance.values() if v > 0.1]
        assert max(meaningful) > 1.0    # divergent layers weigh above mean

    def test_importance_prior_feeds_budget_search(self, trained):
        from repro.slicing.budget import search_profile_for_budget
        from repro.metrics.flops import measured_flops
        model, data = trained
        importance = importance_from_attribution(
            layer_divergence(model, data["eval_x"][:16], 0.25))
        full = measured_flops(model, (1, 16), rate=1.0)
        result = search_profile_for_budget(
            model, (1, 16), 0.6 * full, [0.25, 0.5, 0.75, 1.0],
            importance=importance)
        assert result.cost <= 0.6 * full


# ---------------------------------------------------------------------------
class TestEvalRecords:
    def test_sweep_runs_through_warm_plan_cache(self, trained):
        model, data = trained
        obs.configure(clock=obs.TickClock())
        cache = PlanCache()
        records, embeddings = collect_eval_records(
            model, data["eval_x"][:64], data["eval_y"][:64], RATES,
            plan_cache=cache, batch_size=16)
        hits = obs.registry().get("plan_cache_hits_total")
        misses = obs.registry().get("plan_cache_misses_total")
        assert misses.total() == len(RATES)       # one compile per profile
        # 64 examples / batch 16 = 4 batches per profile, all hits
        assert hits.total() == 4 * len(RATES)
        assert len(records) == 64 * len(RATES)
        assert embeddings.shape == (64, 32)
        obs.shutdown(write_metrics=False)

    def test_margin_and_correctness_are_consistent(self, trained):
        model, data = trained
        records, _ = collect_eval_records(
            model, data["eval_x"][:32], data["eval_y"][:32], [1.0])
        for record in records:
            assert record.margin >= 0.0
            assert record.correct == (record.predicted == record.label)

    def test_records_round_trip_through_trace(self, trained, tmp_path):
        model, data = trained
        path = str(tmp_path / "eval.jsonl")
        obs.configure(trace_path=path, clock=obs.TickClock())
        records, embeddings = collect_eval_records(
            model, data["eval_x"][:16], data["eval_y"][:16], RATES)
        obs.shutdown()
        loaded, loaded_emb = records_from_trace(load_records(path))
        assert [r.to_attrs() for r in loaded] == [
            r.to_attrs() for r in records]
        assert loaded_emb.shape == embeddings.shape
        assert np.allclose(loaded_emb, embeddings, atol=1e-6)

    def test_mismatched_lengths_raise(self, trained):
        model, data = trained
        with pytest.raises(DataError):
            collect_eval_records(model, data["eval_x"][:4],
                                 data["eval_y"][:3], [1.0])
        with pytest.raises(DataError):
            collect_eval_records(model, data["eval_x"][:0],
                                 data["eval_y"][:0], [1.0])

    def test_profile_key_forms(self):
        assert profile_key(0.25) == "0.25"
        assert profile_key(1.0) == "1"
        layered = LayerProfile({"fc0": 0.5}, default=1.0)
        assert profile_key(layered).startswith("prof:")

    def test_penultimate_embedding_uses_full_width(self, trained):
        model, data = trained
        emb = penultimate_embedding(model, data["eval_x"][:8])
        assert emb.shape == (8, 32)           # full hidden width


# ---------------------------------------------------------------------------
class TestDiagnosisWeightedScheme:
    def test_weights_favor_profiles_with_worse_slices(self):
        scheme = DiagnosisWeightedScheme(
            [0.25, 0.5, 1.0], {"0.25": 0.8, "0.5": 0.2, "1": 0.0})
        weights = dict(zip([p.label() for p in scheme.rates],
                           scheme.probabilities))
        assert weights["0.25"] > weights["0.5"] > weights["1"]
        assert sum(scheme.probabilities) == pytest.approx(1.0)

    def test_sample_always_includes_widest(self):
        scheme = DiagnosisWeightedScheme([0.25, 0.5, 1.0], {"0.25": 0.9})
        rng = np.random.default_rng(0)
        for _ in range(20):
            sampled = scheme.sample(rng)
            assert sampled[0] == 1.0
            assert sampled == sorted(sampled, reverse=True)
            assert len(set(p.fingerprint() for p in sampled)) == len(sampled)

    def test_floor_keeps_every_profile_reachable(self):
        scheme = DiagnosisWeightedScheme(
            [0.25, 0.5, 1.0], {"0.25": 1.0}, floor=0.3)
        assert min(scheme.probabilities) > 0.0

    def test_unknown_error_keys_fall_back_to_floor(self):
        scheme = DiagnosisWeightedScheme([0.5, 1.0], {"0.77": 0.9})
        assert scheme.errors == [0.0, 0.0]

    def test_float_keys_are_accepted(self):
        scheme = DiagnosisWeightedScheme([0.25, 1.0], {0.25: 0.5})
        assert scheme.errors[0] == 0.5

    def test_invalid_args_raise(self):
        with pytest.raises(SchedulingError):
            DiagnosisWeightedScheme([])
        with pytest.raises(SchedulingError):
            DiagnosisWeightedScheme([0.5], floor=2.0)
        with pytest.raises(SchedulingError):
            DiagnosisWeightedScheme([0.5], num_samples=0)

    def test_from_report_uses_worst_slice_accuracy(self, trained):
        model, data = trained
        report = diagnose(model, data["eval_x"][:64], data["eval_y"][:64],
                          RATES, seed=0)
        scheme = report.scheme()
        assert [p.label() for p in scheme.rates] == report.profiles
        worst = report.worst_slice_accuracy
        by_label = dict(zip([p.label() for p in scheme.rates],
                            scheme.errors))
        for key, acc in worst.items():
            assert by_label[key] == pytest.approx(1.0 - acc)

    def test_trains_under_slice_trainer(self):
        scheme = DiagnosisWeightedScheme([0.25, 0.5, 1.0], {"0.25": 0.7})
        model, data = train_demo_model(seed=1, epochs=1, scheme=scheme)
        from repro.tensor import Tensor
        logits = model(Tensor(data["eval_x"][:4]))
        assert logits.data.shape == (4, 4)


# ---------------------------------------------------------------------------
class TestDiagnoseReport:
    def test_report_json_is_byte_identical_across_runs(self, tmp_path):
        payloads = []
        for _ in range(2):
            model, data = train_demo_model(seed=0, epochs=2)
            report = diagnose(model, data["eval_x"][:96],
                              data["eval_y"][:96], RATES, seed=0)
            payloads.append(report.to_json())
        assert payloads[0] == payloads[1]
        parsed = json.loads(payloads[0])
        assert parsed["profiles"] == ["0.25", "0.5", "1"]
        assert parsed["reference"] == "0.25"
        assert len(parsed["slices"]) >= 1
        assert len(parsed["attribution"]) == 3

    def test_eval_trace_is_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.jsonl")
            model, data = train_demo_model(seed=0, epochs=2)
            obs.configure(trace_path=path, clock=obs.TickClock())
            diagnose(model, data["eval_x"][:48], data["eval_y"][:48],
                     RATES, seed=0)
            obs.shutdown()
            blobs.append(open(path, "rb").read())
        assert blobs[0] == blobs[1]
        assert len(blobs[0]) > 0

    def test_report_names_a_degrading_slice(self, trained):
        model, data = trained
        report = diagnose(model, data["eval_x"], data["eval_y"], RATES,
                          seed=0)
        worst = report.slices[0]
        # the planted hard region: collapses when narrow, better when full
        assert worst.accuracy_by_profile["0.25"] < \
            worst.accuracy_by_profile["1"]
        assert worst.error_count > 0
        # attribution ranks a genuinely divergent layer first
        assert report.attribution[0].divergence > 0.0
        rendered = report.render()
        for section in ("per-profile quality", "error slices",
                        "layer attribution"):
            assert section in rendered

    def test_report_emits_diagnose_metrics(self, trained):
        model, data = trained
        obs.configure(clock=obs.TickClock())
        diagnose(model, data["eval_x"][:32], data["eval_y"][:32], RATES,
                 seed=0)
        registry = obs.registry()
        assert registry.get("diagnose_examples_total").total() == 96
        assert registry.get("diagnose_error_slices") is not None
        assert registry.get("diagnose_worst_slice_accuracy") is not None
        assert registry.get("diagnose_layer_divergence") is not None
        obs.shutdown(write_metrics=False)

    def test_correctness_by_profile_shapes(self, trained):
        model, data = trained
        records, _ = collect_eval_records(
            model, data["eval_x"][:16], data["eval_y"][:16], RATES)
        correct = correctness_by_profile(records, 16)
        assert set(correct) == {"0.25", "0.5", "1"}
        for series in correct.values():
            assert series.shape == (16,)


# ---------------------------------------------------------------------------
class TestRuntimeSliceLabels:
    def test_slice_labels_emit_per_slice_counters(self):
        from repro.runtime import (
            InferenceRuntime,
            LatencyProfile,
            Replica,
            ReplicaPool,
            RuntimeConfig,
        )
        from repro.serving import SliceRateController

        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(8, 4)).astype(np.float32)
        labels = ["slice0" if i < 4 else "slice1" for i in range(8)]
        arrivals = np.sort(rng.uniform(0.0, 2.0, size=40))
        pool = ReplicaPool([Replica("r0", LatencyProfile(0.002))])
        runtime = InferenceRuntime(
            pool, SliceRateController([0.5, 1.0], 0.002, 0.1),
            RuntimeConfig(latency_slo=0.1, max_batch_size=16,
                          batch_timeout=0.01),
            {0.5: 0.8, 1.0: 0.9}, inputs=inputs, slice_labels=labels)
        obs.configure(clock=obs.TickClock())
        runtime.run(arrivals, 2.0)
        counter = obs.registry().get("runtime_slice_requests_total")
        assert counter is not None
        samples = counter.to_dict()["samples"]
        seen = {s["labels"]["slice"] for s in samples}
        assert seen <= {"slice0", "slice1"} and seen
        assert counter.total() == obs.registry().get(
            "runtime_requests_total").total()
        obs.shutdown(write_metrics=False)

    def test_slice_labels_require_inputs_and_matching_length(self):
        from repro.errors import ServingError
        from repro.runtime import (
            InferenceRuntime,
            LatencyProfile,
            Replica,
            ReplicaPool,
            RuntimeConfig,
        )
        from repro.serving import SliceRateController

        pool = ReplicaPool([Replica("r0", LatencyProfile(0.002))])
        config = RuntimeConfig(latency_slo=0.1, max_batch_size=16,
                               batch_timeout=0.01)
        controller = SliceRateController([1.0], 0.002, 0.1)
        with pytest.raises(ServingError):
            InferenceRuntime(pool, controller, config, {1.0: 0.9},
                             slice_labels=["a"])
        inputs = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ServingError):
            InferenceRuntime(pool, controller, config, {1.0: 0.9},
                             inputs=inputs, slice_labels=["a", "b"])
