"""Tests for the multi-process replica pool (repro.runtime.workers).

The acceptance contract: a :class:`ProcessReplicaPool` must be
byte-identical to the in-process pool for the same seeded request
stream (every demo rate plus a non-uniform layer profile), weight
mutations in the parent must invalidate worker plan caches through the
shared arena's version block, and workers must boot with the parent's
seed, ``REPRO_*`` environment and observability state.  Workers run one
BLAS thread, the parent keeps its own count, and worker answers stay
bitwise equal to the (multi-threaded) parent's.  Worker cascades read
the plan cache ``warm_cascade`` filled and recompile it after a parent
weight update.
"""

import dataclasses
import os
import signal

import numpy as np
import pytest

from repro import MLP, obs
from repro.diagnose.demo import DEMO_RATES, train_demo_model
from repro.errors import ServingError
from repro.models.transformer import TransformerEncoder
from repro.models.vgg import SlicedVGG
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import load_records, summarize
from repro.runtime import (
    CascadeExecutor,
    CascadeResult,
    CascadeStage,
    LatencyProfile,
    Replica,
)
from repro.runtime.workers import ProcessReplicaPool
from repro.slicing import LayerProfile
from repro.tensor.shared import shm_segments
from repro.utils.blas import blas_threads

PROFILE = LayerProfile({"fc0": 0.5, "fc1": 0.75}, default=1.0)


@pytest.fixture(scope="module")
def demo():
    """One trained demo model (and its data) shared by this module."""
    model, data = train_demo_model(seed=0, epochs=1)
    return model.eval(), data


def _baseline(model):
    return Replica("ref", LatencyProfile(1.0), model=model)


def _spawn_factory():
    return MLP(in_features=8, hidden=[16, 16], num_classes=3, seed=41)


def _cascade_stages():
    stages = [CascadeStage(rate, 1.0) for rate in DEMO_RATES[:-1]]
    stages.append(CascadeStage(DEMO_RATES[-1]))
    return stages


needs_openblas = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy's BLAS is not OpenBLAS")
needs_spawn = pytest.mark.skipif(
    "spawn" not in __import__("multiprocessing").get_all_start_methods(),
    reason="no spawn start method")


# ---------------------------------------------------------------------------
class TestByteIdentical:
    def test_one_worker_matches_in_process(self, demo):
        """Acceptance: all demo rates + a non-uniform layer profile."""
        model, data = demo
        x = data["eval_x"][:64]
        reference = _baseline(model)
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            worker = pool.replicas[0]
            for profile in [*DEMO_RATES, PROFILE]:
                np.testing.assert_array_equal(
                    worker.predict(x, profile),
                    reference.predict(x, profile))

    def test_two_workers_agree_with_each_other(self, demo):
        model, data = demo
        x = data["eval_x"][:32]
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            first, second = pool.replicas
            np.testing.assert_array_equal(first.predict(x, 0.5),
                                          second.predict(x, 0.5))

    def test_predict_many_preserves_batch_order(self, demo):
        model, data = demo
        reference = _baseline(model)
        batches = [data["eval_x"][i * 10:(i + 1) * 10] for i in range(8)]
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            results = pool.predict_many(batches, 0.5, window=2)
        assert len(results) == len(batches)
        for batch, result in zip(batches, results):
            np.testing.assert_array_equal(
                result, reference.predict(batch, 0.5))

    def test_in_worker_cascade_matches_parent_executor(self, demo):
        model, data = demo
        rows = np.ascontiguousarray(data["eval_x"][:48], dtype=np.float32)
        executor = CascadeExecutor(model, _cascade_stages())
        expected = executor.run_batch(rows)
        assert expected.escalations       # the reply carries escalations
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            assert pool.warm_cascade(executor) > 0
            results = [worker.run_cascade(rows) for worker in pool.replicas]
        for result in results:
            for spec in dataclasses.fields(CascadeResult):
                got = getattr(result, spec.name)
                want = getattr(expected, spec.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, spec.name
                    np.testing.assert_array_equal(got, want)
                else:
                    assert got == want, spec.name

    def test_warm_fills_the_cache_the_cascade_reads(self, demo):
        model, data = demo
        executor = CascadeExecutor(model, _cascade_stages())
        batches = [np.ascontiguousarray(data["eval_x"][i * 32:(i + 1) * 32],
                                        dtype=np.float32) for i in range(4)]
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            assert pool.warm_cascade(executor) == len(executor.stages)
            reached = sum(len(pool.replicas[0].run_cascade(b).stage_rows)
                          for b in batches)
            cache = pool.worker_stats()[0]["cascade_cache"]
        assert reached > len(batches)   # some batches escalate
        assert cache["misses"] == len(executor.stages)
        assert cache["hits"] == reached
        assert cache["invalidations"] == 0

    def test_cascade_before_warm_is_an_error(self, demo):
        model, data = demo
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            with pytest.raises(ServingError, match="warm_cascade"):
                pool.replicas[0].run_cascade(data["eval_x"][:4])


# ---------------------------------------------------------------------------
class TestStaleness:
    def test_parent_mutation_recompiles_worker_plans(self):
        model, data = train_demo_model(seed=3, epochs=1)
        model.eval()
        x = data["eval_x"][:32]
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            pool.warm_plans([0.5])
            for replica in pool.replicas:
                replica.predict(x, 0.5)
            assert [s["plan_cache"]["invalidations"]
                    for s in pool.worker_stats()] == [0, 0]

            # Hot-swap weights in the parent (version counters bump);
            # the next proxied request publishes and every worker's
            # local PlanCache recompiles its now-stale plan.
            state = {name: array * 1.02
                     for name, array in model.state_dict().items()}
            model.load_state_dict(state)
            expected = _baseline(model).predict(x, 0.5)
            for replica in pool.replicas:
                np.testing.assert_array_equal(replica.predict(x, 0.5),
                                              expected)
            assert [s["plan_cache"]["invalidations"]
                    for s in pool.worker_stats()] == [1, 1]

    def test_parent_mutation_after_warm_cascade_recompiles(self):
        model, data = train_demo_model(seed=3, epochs=1)
        model.eval()
        rows = np.ascontiguousarray(data["eval_x"][:48], dtype=np.float32)
        executor = CascadeExecutor(model, _cascade_stages())
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            pool.warm_cascade(executor)
            before = pool.replicas[0].run_cascade(rows)
            with model.head.weight.mutate() as weights:
                weights[:] = -weights
            expected = executor.run_batch(rows)
            result = pool.replicas[0].run_cascade(rows)
            cache = pool.worker_stats()[0]["cascade_cache"]
        assert not np.array_equal(before.predictions, expected.predictions)
        np.testing.assert_array_equal(result.predictions,
                                      expected.predictions)
        np.testing.assert_array_equal(result.stages, expected.stages)
        assert result.stage_spent == expected.stage_spent
        assert cache["invalidations"] >= 1

    def test_mutate_scope_reaches_workers(self, demo):
        model, data = demo
        x = data["eval_x"][:16]
        param = next(p for _, p in model.named_parameters())
        original = param.data.copy()
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            try:
                pool.replicas[0].predict(x, 0.5)
                with param.mutate() as weights:
                    weights[...] = weights * 2.0
                expected = _baseline(model).predict(x, 0.5)
                np.testing.assert_array_equal(
                    pool.replicas[0].predict(x, 0.5), expected)
            finally:
                with param.mutate() as weights:
                    weights[...] = original

    def test_sync_is_noop_without_mutation(self, demo):
        model, _ = demo
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            assert pool.sync() is False


# ---------------------------------------------------------------------------
class TestWorkerBoot:
    def test_seed_env_and_obs_state_propagate(self, demo, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        model, _ = demo
        with ProcessReplicaPool(model, 2, seed=7) as pool:
            stats = pool.worker_stats()
        assert [s["worker"] for s in stats] == ["w0", "w1"]
        assert [s["seed"] for s in stats] == [7, 8]
        for report in stats:
            assert report["pid"] != os.getpid()
            assert report["env"]["REPRO_TEST_KNOB"] == "42"
            assert report["obs_enabled"] is False
            assert report["trace_path"] is None

    def test_spawn_needs_a_model_factory(self, demo):
        model, _ = demo
        with pytest.raises(ServingError, match="model_factory"):
            ProcessReplicaPool(model, 1, start_method="spawn")

    @needs_spawn
    def test_spawn_workers_adopt_arena_weights(self):
        model = _spawn_factory()
        for _, param in model.named_parameters():   # diverge from factory
            with param.mutate() as weights:
                weights[...] = weights * 1.5
        model.eval()
        x = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
        expected = _baseline(model).predict(x, 0.5)
        with ProcessReplicaPool(model, 1, seed=0, start_method="spawn",
                                model_factory=_spawn_factory) as pool:
            np.testing.assert_array_equal(
                pool.replicas[0].predict(x, 0.5), expected)

    def test_validation(self, demo):
        model, _ = demo
        with pytest.raises(ServingError, match="at least one"):
            ProcessReplicaPool(model, 0)
        with pytest.raises(ServingError, match="trace paths"):
            ProcessReplicaPool(model, 2, trace_paths=["only-one.jsonl"])


# ---------------------------------------------------------------------------
class TestWorkerBlas:
    """Workers run one BLAS thread; the parent keeps its own count."""

    @needs_openblas
    def test_fork_workers_run_one_blas_thread(self, demo):
        model, _ = demo
        with ProcessReplicaPool(model, 2, seed=0,
                                start_method="fork") as pool:
            assert [s["blas_threads"] for s in pool.worker_stats()] == [1, 1]

    @needs_openblas
    @needs_spawn
    def test_spawn_workers_run_one_blas_thread(self):
        with ProcessReplicaPool(_spawn_factory().eval(), 1, seed=0,
                                start_method="spawn",
                                model_factory=_spawn_factory) as pool:
            assert [s["blas_threads"] for s in pool.worker_stats()] == [1]

    def test_parent_thread_count_is_restored(self, demo):
        model, _ = demo
        before = blas_threads()
        pool = ProcessReplicaPool(model, 2, seed=0)
        after_create = blas_threads()
        pool.shutdown()
        assert after_create == before
        assert blas_threads() == before

    @pytest.mark.parametrize("build, shape, rates", [
        # 512 x 256 @ 256 x 1024: large enough that a multi-threaded
        # parent OpenBLAS splits the GEMM across its threads.
        (lambda: MLP(256, [1024, 1024], 10, seed=0), (512, 256), [1.0]),
        (lambda: SlicedVGG.cifar_mini(seed=0), (16, 3, 16, 16), [0.5, 1.0]),
        (lambda: TransformerEncoder(seed=0), (16, 3, 16, 16), [0.5, 1.0]),
    ], ids=["mlp", "gn-vgg", "tenc"])
    def test_worker_predictions_match_threaded_parent(self, build, shape,
                                                      rates):
        model = build().eval()
        x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        reference = _baseline(model)
        expected = [reference.predict(x, rate) for rate in rates]
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            for rate, want in zip(rates, expected):
                for worker in pool.replicas:
                    np.testing.assert_array_equal(worker.predict(x, rate),
                                                  want)


# ---------------------------------------------------------------------------
class TestObservability:
    @pytest.fixture(autouse=True)
    def _isolated_obs(self):
        obs.disable()
        obs._registry = MetricsRegistry()
        obs._tracer = obs.Tracer()
        yield
        obs.disable()
        obs._registry = MetricsRegistry()
        obs._tracer = obs.Tracer()

    def test_worker_traces_exist_and_merge(self, demo, tmp_path):
        model, data = demo
        x = data["eval_x"][:16]
        parent = str(tmp_path / "run.jsonl")
        obs.configure(trace_path=parent, clock=obs.TickClock())
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            paths = pool.trace_paths()
            assert paths == [f"{parent}.w0.jsonl", f"{parent}.w1.jsonl"]
            for replica in pool.replicas:
                replica.predict(x, 0.5)
        obs.shutdown()

        # The parent records IPC latency; the workers record service.
        merged = summarize([parent, *paths])
        assert "worker_ipc_seconds" in merged
        assert "worker_requests_total" in merged
        for path in paths:
            metrics = next(r["metrics"] for r in load_records(path)
                           if r.get("kind") == "metrics")
            assert "worker_requests_total" in metrics
            assert "plan_cache_misses_total" in metrics

    def test_staleness_counts_in_worker_metrics(self, tmp_path):
        model, data = train_demo_model(seed=5, epochs=1)
        model.eval()
        x = data["eval_x"][:16]
        parent = str(tmp_path / "stale.jsonl")
        obs.configure(trace_path=parent, clock=obs.TickClock())
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            paths = pool.trace_paths()
            for replica in pool.replicas:
                replica.predict(x, 0.5)
            state = {name: array * 1.01
                     for name, array in model.state_dict().items()}
            model.load_state_dict(state)
            for replica in pool.replicas:
                replica.predict(x, 0.5)
        obs.shutdown()

        for path in paths:     # every worker accounts its own recompile
            metrics = next(r["metrics"] for r in load_records(path)
                           if r.get("kind") == "metrics")
            invalidations = metrics["plan_cache_invalidations_total"]
            assert sum(s["value"]
                       for s in invalidations["samples"]) == 1.0
            refreshes = metrics["worker_refreshes_total"]
            assert sum(s["value"] for s in refreshes["samples"]) > 0

    def test_one_worker_trace_is_deterministic(self, demo, tmp_path):
        model, data = demo
        x = data["eval_x"][:16]
        traces = []
        for run in ("a", "b"):
            parent = str(tmp_path / f"{run}.jsonl")
            obs.configure(trace_path=parent, clock=obs.TickClock())
            with ProcessReplicaPool(model, 1, seed=0) as pool:
                pool.warm_plans([0.5])
                pool.replicas[0].predict(x, 0.5)
                traces.append(pool.trace_paths()[0])
            obs.shutdown()
        with open(traces[0], "rb") as a, open(traces[1], "rb") as b:
            assert a.read() == b.read()


# ---------------------------------------------------------------------------
class TestPoolLifecycle:
    def test_killed_worker_is_quarantined_and_pool_survives(self, demo):
        model, data = demo
        x = data["eval_x"][:8]
        with ProcessReplicaPool(model, 2, seed=0) as pool:
            victim = pool.replicas[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim._handle.process.join(5.0)
            detected = pool.health_check()
            assert [r.replica_id for r in detected] == ["w0"]
            assert [r.replica_id for r in pool.in_rotation()] == ["w1"]
            assert pool.replicas[1].predict(x, 0.5).shape == (8,)

    def test_shutdown_is_idempotent_and_releases_arena(self, demo):
        model, _ = demo
        pool = ProcessReplicaPool(model, 1, seed=0)
        segment = pool.arena.manifest.segment
        assert segment in shm_segments()
        pool.shutdown()
        pool.shutdown()
        assert segment not in shm_segments()
        with pytest.raises(ServingError, match="no live workers"):
            pool.worker_stats()

    def test_caller_owned_arena_survives_pool_shutdown(self, demo):
        model, _ = demo
        arena = model.share_memory()
        try:
            pool = ProcessReplicaPool(model, 1, seed=0, arena=arena)
            pool.shutdown()
            assert arena.manifest.segment in shm_segments()
        finally:
            arena.release()
