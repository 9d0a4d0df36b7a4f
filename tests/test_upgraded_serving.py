"""An upgraded plain network serves like every bundled model.

Algorithm 1 starts from ``W0 <- upgrade_model(W0, L)``, which returns a
``Sequential`` of sliced layers.  The ``sequential`` family declares it,
so the upgraded network runs on compiled plans, replica pools (in
process and in worker processes), both cascade modes and exact Sec. 3.5
widening.  Two networks: a plain MLP, and a plain CNN whose batch norms
become group norms, with a max pool, a global average pool and a linear
head.
"""

import numpy as np
import pytest

from repro.nn import (BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear,
                      MaxPool2d, ReLU, Sequential)
from repro.runtime import (CascadeExecutor, CascadeStage, LatencyProfile,
                           Replica, ReplicaPool, margins_of)
from repro.runtime.workers import ProcessReplicaPool
from repro.slicing import (LayerProfile, ResumablePlan,
                           assign_slice_points, compile_plan, slice_profile,
                           upgrade_model)
from repro.tensor import Tensor, no_grad

RATES = (0.25, 0.5, 0.75, 1.0)


def _plain_mlp():
    rng = np.random.default_rng(0)
    return upgrade_model(Sequential(
        Linear(12, 32, rng=rng), ReLU(), Linear(32, 32, rng=rng), ReLU(),
        Linear(32, 5, rng=rng)))


def _gn_cnn():
    rng = np.random.default_rng(0)
    return upgrade_model(Sequential(
        Conv2d(3, 16, 3, padding=1, rng=rng), BatchNorm2d(16), ReLU(),
        MaxPool2d(2),
        Conv2d(16, 16, 3, padding=1, rng=rng), BatchNorm2d(16), ReLU(),
        GlobalAvgPool2d(), Linear(16, 5, rng=rng)))


# name -> (builder, input row shape, a non-uniform profile)
NETWORKS = {
    "plain_mlp": (_plain_mlp, (12,),
                  LayerProfile({"0": 0.25, "2": 0.75}, default=0.5)),
    "gn_cnn": (_gn_cnn, (3, 8, 8),
               LayerProfile({"0": 0.5, "4": 0.25}, default=1.0)),
}


@pytest.fixture(params=sorted(NETWORKS))
def network(request):
    build, row_shape, profile = NETWORKS[request.param]
    model = build().eval()
    assign_slice_points(model)  # profiles name layers by container index
    x = np.random.default_rng(1).normal(
        size=(24,) + row_shape).astype(np.float32)
    return model, x, [*RATES, profile]


def _predict(model, rate, x):
    return np.argmax(compile_plan(model, rate).run(x), axis=-1)


def test_plan_argmax_equals_live(network):
    model, x, profiles = network
    for rate in profiles:
        with no_grad(), slice_profile(rate):
            live = model(Tensor(x)).data
        np.testing.assert_array_equal(_predict(model, rate, x),
                                      np.argmax(live, axis=-1))


def test_replica_pools_predict_what_the_plan_predicts(network):
    model, x, profiles = network
    pool = ReplicaPool([Replica("r0", LatencyProfile(0.002), model=model)])
    with ProcessReplicaPool(model, 1, seed=0) as workers:
        for rate in profiles:
            expected = _predict(model, rate, x)
            np.testing.assert_array_equal(pool.get("r0").predict(x, rate),
                                          expected)
            np.testing.assert_array_equal(
                workers.replicas[0].predict(x, rate), expected)


def test_cascade_modes_agree(network):
    model, x, _ = network
    # Thresholds at the median margin, so about half the rows escalate
    # at each stage.
    stages = [CascadeStage(rate, float(np.median(margins_of(
        compile_plan(model, rate).run(x))))) for rate in (0.25, 0.5)]
    stages.append(CascadeStage(1.0))
    compiled = CascadeExecutor(model, stages).run_batch(x)
    resumed = CascadeExecutor(model, stages, incremental=True).run_batch(x)
    assert compiled.escalations
    np.testing.assert_array_equal(compiled.predictions, resumed.predictions)
    np.testing.assert_array_equal(compiled.stages, resumed.stages)


def test_exact_widen_is_bitwise_from_scratch(network):
    model, x, _ = network
    narrow = ResumablePlan(model, 0.5)
    narrow.run(x)
    widened = narrow.widen(1.0)
    np.testing.assert_array_equal(widened, ResumablePlan(model, 1.0).run(x))
    rows = np.array([0, 5, 11])
    again = ResumablePlan(model, 0.5)
    again.run(x)
    np.testing.assert_array_equal(again.subset(rows).widen(1.0),
                                  widened[rows])
