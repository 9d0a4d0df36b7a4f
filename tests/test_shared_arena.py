"""Tests for the shared-memory weight arena (repro.tensor.shared).

The arena packs a model's widest-rate parameters and running stats
into one shared-memory segment; these tests exercise the single
process contract — bind/adopt equivalence, the version-block
publish/refresh protocol (and the generation counter that lets an
idle refresh skip the slots) driving cross-attachment plan
invalidation, and lifecycle safety — without spawning workers (the multi-process
path is tests/test_process_pool.py).
"""

import pickle

import numpy as np
import pytest

from repro import MLP
from repro.errors import ConfigError
from repro.nn.norm import BatchNorm2d
from repro.slicing import LayerProfile
from repro.slicing.plans import PlanCache
from repro.tensor.shared import (
    ARENA_PREFIX,
    ArenaManifest,
    SharedArena,
    owned_segments,
    shm_segments,
)


def _model(seed=0):
    return MLP(6, [16, 16], 3, seed=seed).eval()


def _inputs(seed=0, n=12):
    return np.random.default_rng(seed).normal(
        size=(n, 6)).astype(np.float32)


# ---------------------------------------------------------------------------
class TestCreateAndBind:
    def test_bind_preserves_predictions_bitwise(self):
        model = _model()
        x = _inputs()
        before = {rate: PlanCache().get(model, rate).run(x)
                  for rate in (0.25, 0.5, 1.0)}
        with model.share_memory() as arena:
            assert arena.manifest.segment.startswith(ARENA_PREFIX)
            for rate, expected in before.items():
                after = PlanCache().get(model, rate).run(x)
                np.testing.assert_array_equal(after, expected)

    def test_parameters_rebound_to_writable_views(self):
        model = _model()
        with model.share_memory() as arena:
            for name, param in model.named_parameters():
                assert param.data is arena.view(name)
                assert param.data.flags.writeable

    def test_manifest_covers_state_dict_and_pickles(self):
        model = _model()
        with model.share_memory() as arena:
            manifest = arena.manifest
            assert sorted(manifest.names()) == sorted(model.state_dict())
            clone = pickle.loads(pickle.dumps(manifest))
            assert clone == manifest
            assert isinstance(clone, ArenaManifest)

    def test_empty_model_is_rejected(self):
        from repro.nn.module import Module

        with pytest.raises(ConfigError, match="no.*parameters"):
            SharedArena.create(Module())


# ---------------------------------------------------------------------------
class TestAttachAndAdopt:
    def test_adopted_model_predicts_identically(self):
        parent = _model(seed=0)
        other = _model(seed=99)      # different weights until adoption
        x = _inputs()
        with parent.share_memory() as arena:
            expected = PlanCache().get(parent, 0.5).run(x)
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                got = PlanCache().get(other, 0.5).run(x)
                np.testing.assert_array_equal(got, expected)
            finally:
                attached.close()

    def test_adopted_views_are_read_only(self):
        parent = _model()
        other = _model(seed=1)
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                param = next(p for _, p in other.named_parameters())
                assert not param.data.flags.writeable
                with pytest.raises(ValueError):
                    param.data[...] = 0.0
            finally:
                attached.close()

    def test_adoption_syncs_version_counters(self):
        parent = _model()
        other = _model(seed=1)
        for _, param in parent.named_parameters():
            param.bump_version()
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                parent_versions = {name: p.version
                                   for name, p in parent.named_parameters()}
                for name, param in other.named_parameters():
                    assert param.version == parent_versions[name]
            finally:
                attached.close()

    def test_architecture_mismatch_is_rejected(self):
        parent = _model()
        with parent.share_memory() as arena:
            wrong = MLP(6, [8, 8], 3, seed=0)    # narrower hidden layers
            attached = SharedArena.attach(arena.manifest)
            try:
                with pytest.raises(ConfigError, match="shape mismatch"):
                    attached.adopt(wrong)
            finally:
                attached.close()


# ---------------------------------------------------------------------------
class TestPublishRefresh:
    def test_refresh_invalidates_stale_plans(self):
        parent = _model()
        worker_model = _model(seed=1)
        x = _inputs()
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(worker_model)
                cache = PlanCache()
                stale = cache.get(worker_model, 0.5).run(x)

                # Parent retrains / hot-swaps weights, then publishes.
                state = {name: array * 1.5
                         for name, array in parent.state_dict().items()}
                parent.load_state_dict(state)
                assert arena.publish(parent) > 0

                assert attached.refresh(worker_model) > 0
                fresh = cache.get(worker_model, 0.5).run(x)
                expected = PlanCache().get(parent, 0.5).run(x)
                np.testing.assert_array_equal(fresh, expected)
                assert not np.array_equal(fresh, stale)
                assert cache.stats()["invalidations"] == 1
            finally:
                attached.close()

    def test_publish_is_noop_without_changes(self):
        parent = _model()
        with parent.share_memory() as arena:
            assert arena.publish(parent) == 0

    def test_refresh_is_noop_without_publish(self):
        parent = _model()
        other = _model(seed=1)
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                assert attached.refresh(other) == 0
            finally:
                attached.close()

    def test_mutate_context_rides_the_version_block(self):
        parent = _model()
        other = _model(seed=1)
        x = _inputs()
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                profile = LayerProfile({"fc0": 0.5}, default=1.0)
                cache = PlanCache()
                cache.get(other, profile)
                param = next(p for _, p in parent.named_parameters())
                with param.mutate() as data:
                    data[...] = data * 2.0
                assert arena.publish(parent) == 1
                assert attached.refresh(other) == 1
                got = cache.get(other, profile).run(x)
                expected = PlanCache().get(parent, profile).run(x)
                np.testing.assert_array_equal(got, expected)
                assert cache.stats()["invalidations"] == 1
            finally:
                attached.close()

    def test_running_stats_publish_on_content_drift(self):
        parent = BatchNorm2d(4)
        other = BatchNorm2d(4)
        parent.eval(), other.eval()
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                assert other.running_mean is attached.view("running_mean")

                # In-place drift of the running stats (what train() does).
                parent.running_mean[...] = 7.0
                assert arena.publish(parent) == 1
                assert attached.refresh(other) == 1
                # refresh rebinds to a *fresh* view object (so plan
                # identity checks fail) with the published content.
                np.testing.assert_array_equal(other.running_mean, 7.0)
            finally:
                attached.close()


class _NoWalk(list):
    """A bound-slot list that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("refresh walked the slots")


class TestGeneration:
    def test_refresh_adopts_exactly_the_published_slots(self):
        parent = _model()
        other = _model(seed=1)
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                params = dict(parent.named_parameters())
                for name in ("fc1.weight", "head.bias"):
                    params[name].bump_version()
                before = {name: p.version
                          for name, p in other.named_parameters()}
                assert arena.publish(parent) == 2
                assert attached.refresh(other) == 2
                moved = {name for name, p in other.named_parameters()
                         if p.version != before[name]}
                assert moved == {"fc1.weight", "head.bias"}
                assert attached.refresh(other) == 0
            finally:
                attached.close()

    def test_running_stat_only_publish_adopts_one_slot(self):
        parent = BatchNorm2d(4)
        other = BatchNorm2d(4)
        parent.eval(), other.eval()
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                versions = [p.version for p in other.parameters()]
                running_var = other.running_var
                parent.running_mean[...] = 3.0
                assert arena.publish(parent) == 1
                assert attached.refresh(other) == 1
                np.testing.assert_array_equal(other.running_mean, 3.0)
                assert other.running_var is running_var
                assert [p.version for p in other.parameters()] == versions
            finally:
                attached.close()

    def test_noop_refresh_does_not_walk_slots(self):
        parent = _model()
        other = _model(seed=1)
        with parent.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            try:
                attached.adopt(other)
                assert arena.publish(parent) == 0
                bound = attached._bound_params
                attached._bound_params = _NoWalk(bound)
                assert attached.refresh(other) == 0
                # A publish that changed a slot moves the generation, and
                # the next refresh walks again.
                attached._bound_params = bound
                next(iter(parent.parameters())).bump_version()
                assert arena.publish(parent) == 1
                assert attached.refresh(other) == 1
            finally:
                attached.close()


# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_release_removes_the_segment(self):
        model = _model()
        arena = model.share_memory()
        name = arena.manifest.segment
        assert name in shm_segments()
        assert name in owned_segments()
        arena.release()
        assert name not in shm_segments()
        assert name not in owned_segments()

    def test_close_and_unlink_are_idempotent(self):
        arena = _model().share_memory()
        arena.close()
        arena.close()
        assert arena.closed
        arena.unlink()
        arena.unlink()

    def test_closed_arena_rejects_use(self):
        model = _model()
        arena = model.share_memory()
        arena.release()
        with pytest.raises(ConfigError, match="closed"):
            arena.publish(model)

    def test_attacher_never_unlinks(self):
        model = _model()
        with model.share_memory() as arena:
            attached = SharedArena.attach(arena.manifest)
            attached.release()      # non-owner: close only
            assert arena.manifest.segment in shm_segments()

    def test_context_manager_releases_on_error(self):
        model = _model()
        with pytest.raises(RuntimeError):
            with model.share_memory() as arena:
                name = arena.manifest.segment
                raise RuntimeError("boom")
        assert name not in shm_segments()

    def test_attach_after_unlink_fails(self):
        model = _model()
        arena = model.share_memory()
        manifest = arena.manifest
        arena.release()
        with pytest.raises(FileNotFoundError):
            SharedArena.attach(manifest)
