"""Tests for the worker wire format (repro.runtime.workers frames).

Requests and replies cross the worker pipe as one raw frame each: a
struct header plus the array bytes, decoded by ``np.frombuffer`` into a
read-only view.  The contract: arrays round-trip bitwise for every wire
dtype, layout and rank; unsendable dtypes fail before anything reaches
the pipe; profiles are interned once per worker, after which the hot
ops never pickle; a failed pipeline leaves the pipe in step; and every
model family answers a read-only input exactly as a writable one.
"""

import dataclasses
import multiprocessing as mp
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro import MLP
from repro.diagnose.demo import DEMO_RATES, train_demo_model
from repro.errors import ServingError
from repro.models import SlicedVGG, TransformerEncoder, TransformerLM
from repro.runtime import (
    CascadeExecutor,
    CascadeResult,
    CascadeStage,
    LatencyProfile,
    Replica,
)
from repro.runtime.workers import (
    OP_OK,
    OP_PREDICT,
    ProcessReplicaPool,
    pack_cascade,
    pack_frame,
    unpack_cascade,
    unpack_frame,
)
from repro.slicing import LayerProfile, as_profile

PROFILE = LayerProfile({"fc0": 0.5, "fc1": 0.75}, default=1.0)


@pytest.fixture(scope="module")
def demo():
    """One trained demo model (and its data) shared by this module."""
    model, data = train_demo_model(seed=0, epochs=1)
    return model.eval(), data


def _stages():
    stages = [CascadeStage(rate, 1.0) for rate in DEMO_RATES[:-1]]
    stages.append(CascadeStage(DEMO_RATES[-1]))
    return stages


def assert_same_cascade(got: CascadeResult, want: CascadeResult) -> None:
    """Every :class:`CascadeResult` field equal, arrays bitwise."""
    for spec in dataclasses.fields(CascadeResult):
        a, b = getattr(got, spec.name), getattr(want, spec.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, spec.name
            assert a.tobytes() == b.tobytes(), spec.name
        else:
            assert a == b, spec.name


# ---------------------------------------------------------------------------
def _array(dtype, shape, layout):
    rng = np.random.default_rng(7)
    if layout == "strided":           # every other row of a taller array
        shape = (shape[0] * 2,) + shape[1:]
    values = rng.normal(size=shape) * 100
    if dtype == np.bool_:
        array = values > 0
    else:
        array = values.astype(dtype)
    if layout == "fortran":
        array = np.asfortranarray(array)
    elif layout == "strided":
        array = array[::2]
    return array


class TestCodec:
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    @pytest.mark.parametrize("shape", [(0, 4), (5,), (3, 4), (2, 3, 4),
                                       (2, 3, 4, 5)],
                             ids=["0-row", "1d", "2d", "3d", "4d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64,
                                       np.int32, np.bool_],
                             ids=["f32", "f64", "i64", "i32", "bool"])
    def test_arrays_round_trip_bitwise(self, dtype, shape, layout):
        array = _array(dtype, shape, layout)
        op, tag, decoded = unpack_frame(pack_frame(OP_PREDICT, array, 7))
        assert (op, tag) == (OP_PREDICT, 7)
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()
        assert not decoded.flags.writeable     # a view of the frame

    def test_zero_dim_and_big_endian_round_trip(self):
        for array in (np.full((), 2.5),
                      np.arange(6, dtype=">i4").reshape(2, 3)):
            _, _, decoded = unpack_frame(pack_frame(OP_OK, array))
            assert decoded.dtype == array.dtype
            assert decoded.shape == array.shape
            assert decoded.tobytes() == array.tobytes()

    def test_array_body_is_aligned(self):
        for ndim in range(5):
            frame = pack_frame(OP_OK, np.zeros((1,) * ndim))
            assert unpack_frame(frame)[2].flags.aligned

    def test_pickled_bodies_round_trip(self):
        value = {"rates": [0.25, PROFILE], "n": 3}
        op, tag, decoded = unpack_frame(pack_frame(OP_OK, value=value))
        assert (op, tag) == (OP_OK, 0)
        assert decoded == value

    @pytest.mark.parametrize("array", [
        np.array([[1, "a"]], dtype=object),
        np.zeros(3, dtype=[("x", "f4"), ("y", "i4")]),
    ], ids=["object", "structured"])
    def test_unsendable_dtypes_raise(self, array):
        with pytest.raises(ServingError, match="cannot send"):
            pack_frame(OP_PREDICT, array)

    def test_cascade_results_round_trip(self):
        results = [
            CascadeResult(predictions=np.array([2, 0, 1], dtype=np.int64),
                          stages=np.array([0, 2, 1], dtype=np.int64),
                          stage_rows=[3, 2, 1],
                          stage_spent=[300, 400, 10 ** 12],
                          stage_full=[300, 500, 10 ** 12],
                          escalations=[(0, 1, 2), (1, 2, 1)]),
            CascadeResult(predictions=np.zeros(0, dtype=np.int64),
                          stages=np.zeros(0, dtype=np.int64),
                          stage_rows=[0], stage_spent=[0], stage_full=[0]),
        ]
        for result in results:
            _, _, vector = unpack_frame(pack_frame(OP_OK,
                                                   pack_cascade(result)))
            assert_same_cascade(unpack_cascade(vector), result)


# ---------------------------------------------------------------------------
class TestWorkerProtocol:
    def test_unsendable_input_fails_before_the_pipe(self, demo):
        model, data = demo
        x = data["eval_x"][:4]
        reference = Replica("ref", LatencyProfile(1.0), model=model)
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            worker = pool.replicas[0]
            with pytest.raises(ServingError, match="cannot send"):
                worker.predict(x.astype(object), 0.5)
            with pytest.raises(ServingError, match="cannot send"):
                pool.predict_many([x, x.astype(object), x], 0.5)
            assert worker._handle.pending == 0
            np.testing.assert_array_equal(worker.predict(x, 0.5),
                                          reference.predict(x, 0.5))

    def test_unknown_profile_id_is_an_error_reply(self, demo):
        model, data = demo
        x = data["eval_x"][:6]
        reference = Replica("ref", LatencyProfile(1.0), model=model)
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            worker = pool.replicas[0]
            with pytest.raises(ServingError, match="unknown profile id 99"):
                worker._handle.request(pack_frame(OP_PREDICT, x, 99))
            assert worker._handle.pending == 0
            for profile in (0.5, PROFILE):
                np.testing.assert_array_equal(
                    worker.predict(x, profile),
                    reference.predict(x, profile))

    def test_equal_profiles_share_one_id(self, demo):
        model, data = demo
        x = data["eval_x"][:3]
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            worker = pool.replicas[0]
            handle = worker._handle
            ids = {handle.profile_id(profile) for profile in (
                as_profile(0.5),
                LayerProfile({"fc0": 0.5, "fc1": 0.5}, default=0.5))}
            assert len(ids) == 1
            first = worker.predict(x, 0.5)
            np.testing.assert_array_equal(
                worker.predict(x, LayerProfile({}, default=0.5)), first)
            assert len(handle._profiles) == 1

    def test_failed_predict_many_drains_every_reply(self, demo):
        """Regression: a failed pipeline left stale replies queued."""
        model, data = demo
        reference = Replica("ref", LatencyProfile(1.0), model=model)
        good = [data["eval_x"][i * 3:(i + 1) * 3] for i in range(4)]
        bad = np.zeros((3, 5), dtype=np.float32)    # wrong input width
        x2 = data["eval_x"][20:22]
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            worker = pool.replicas[0]
            with pytest.raises(ServingError):
                pool.predict_many([bad, *good], 0.5)
            assert worker._handle.pending == 0
            got = worker.predict(x2, 1.0)
            assert got.shape == (2,)
            np.testing.assert_array_equal(got, reference.predict(x2, 1.0))
            # The pool still pipelines correctly afterwards.
            for batch, result in zip(good, pool.predict_many(good, 0.5)):
                np.testing.assert_array_equal(
                    result, reference.predict(batch, 0.5))

    def test_request_refuses_while_replies_are_unread(self, demo):
        model, data = demo
        x = data["eval_x"][:4]
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            worker = pool.replicas[0]
            handle = worker._handle
            handle.send(pack_frame(OP_PREDICT, x, handle.profile_id(
                as_profile(0.5))))
            for profile in (0.5, 1.0):      # interned, and new
                with pytest.raises(ServingError, match="unread"):
                    worker.predict(x, profile)
                with pytest.raises(ServingError, match="unread"):
                    pool.predict_many([x], profile)
            assert handle.pending == 1
            assert handle.recv().shape == (4,)
            assert worker.predict(x, 1.0).shape == (4,)

    def test_replies_are_writable(self, demo):
        model, data = demo
        x = np.ascontiguousarray(data["eval_x"][:16], dtype=np.float32)
        executor = CascadeExecutor(model, _stages())
        with ProcessReplicaPool(model, 1, seed=0) as pool:
            pool.warm_cascade(executor)
            worker = pool.replicas[0]
            assert worker.predict(x, 0.5).flags.writeable
            assert pool.predict_many([x], 0.5)[0].flags.writeable
            result = worker.run_cascade(x)
            assert result.predictions.flags.writeable
            assert result.stages.flags.writeable


# ---------------------------------------------------------------------------
@pytest.fixture
def pickle_tripwire(monkeypatch):
    """An event that, once set, makes any pickling raise — in forked
    workers too, since they inherit both the patches and the event."""
    armed = mp.get_context("fork").Event()

    def guard(real):
        def tripwire(*args, **kwargs):
            if armed.is_set():
                raise AssertionError("pickled on a hot worker op")
            return real(*args, **kwargs)
        return tripwire

    monkeypatch.setattr(pickle, "dumps", guard(pickle.dumps))
    monkeypatch.setattr(pickle, "loads", guard(pickle.loads))
    monkeypatch.setattr(ForkingPickler, "dumps",
                        staticmethod(guard(ForkingPickler.dumps)))
    monkeypatch.setattr(ForkingPickler, "loads",
                        staticmethod(guard(ForkingPickler.loads)))
    return armed


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="the tripwire reaches workers only by fork")
def test_hot_ops_never_pickle_after_interning(demo, pickle_tripwire):
    model, data = demo
    x = data["eval_x"][:40]
    rows = np.ascontiguousarray(x, dtype=np.float32)
    profiles = [*DEMO_RATES, PROFILE]
    reference = Replica("ref", LatencyProfile(1.0), model=model)
    executor = CascadeExecutor(model, _stages())
    with ProcessReplicaPool(model, 2, seed=0, start_method="fork") as pool:
        pool.warm_plans(profiles)          # interns every profile
        pool.warm_cascade(executor)
        try:
            pickle_tripwire.set()
            got = {(worker.replica_id, i): worker.predict(x, profile)
                   for worker in pool.replicas
                   for i, profile in enumerate(profiles)}
            many = pool.predict_many([x[:10], x[10:25], x[25:]], PROFILE)
            cascades = [worker.run_cascade(rows) for worker in pool.replicas]
        finally:
            pickle_tripwire.clear()
    for (_, i), answer in got.items():
        np.testing.assert_array_equal(answer,
                                      reference.predict(x, profiles[i]))
    np.testing.assert_array_equal(np.concatenate(many),
                                  reference.predict(x, PROFILE))
    for result in cascades:
        assert_same_cascade(result, executor.run_batch(rows))


# ---------------------------------------------------------------------------
def _read_only(array):
    frozen = array.copy()
    frozen.setflags(write=False)
    return frozen


FAMILIES = [
    (lambda: MLP(12, [32, 24], 5, seed=1), (6, 12), True),
    (lambda: SlicedVGG.cifar_mini(seed=0), (4, 3, 16, 16), True),
    (lambda: TransformerEncoder(seed=0), (4, 3, 16, 16), True),
    # Token ids are (steps, batch) integers; the cascade needs float
    # (batch, ...) rows, so the LM serves predict only.
    (lambda: TransformerLM(61, embed_dim=32, num_heads=4, ffn_dim=64,
                           depth=2, max_seq=16, seed=5), None, False),
]


@pytest.mark.parametrize("build, shape, cascades", FAMILIES,
                         ids=["mlp", "gn-vgg", "tenc", "lm"])
def test_read_only_inputs_answer_like_writable(build, shape, cascades):
    """Workers serve read-only ``np.frombuffer`` views of their frames."""
    model = build().eval()
    rng = np.random.default_rng(4)
    if shape is None:
        x = rng.integers(0, 61, size=(10, 3))
    else:
        x = rng.normal(size=shape).astype(np.float32)
    frozen = _read_only(x)
    replica = Replica("r", LatencyProfile(1.0), model=model)
    for rate in (0.5, 1.0):
        want = replica.predict(x, rate)
        np.testing.assert_array_equal(replica.predict(frozen, rate), want)
    if not cascades:
        return
    stages = [CascadeStage(0.25, 0.5), CascadeStage(0.5, 0.5),
              CascadeStage(1.0)]
    for incremental in (False, True):
        if incremental and isinstance(model, TransformerEncoder):
            continue   # row subsetting rules out transformer models
        executor = CascadeExecutor(model, stages, incremental=incremental)
        assert_same_cascade(executor.run_batch(frozen),
                            executor.run_batch(x))
    assert np.array_equal(frozen, x)
