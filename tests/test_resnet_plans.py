"""SlicedResNet on the compiled path: the residual op end to end.

A GN, BN and multi-BN ``SlicedResNet.cifar_mini`` at every rate of the
G=4 grid and at a per-layer profile that narrows one block, checked four
ways: the compiled plan against the live forward, the GN materialized
subnet against the live forward, an exact ``run -> widen -> widen``
chain against a from-scratch resumable pass, and a row subset's widen
against those rows of the full widen.
"""

import numpy as np
import pytest

from repro.errors import PlanError, ReproError, ShapeError
from repro.metrics import active_params
from repro.models import SlicedResNet
from repro.slicing import (LayerProfile, ResumablePlan, compile_plan,
                           materialize_subnet, slice_profile)
from repro.slicing.plans import ResidualStep
from repro.tensor import Tensor, no_grad

RATES = (0.25, 0.5, 0.75, 1.0)
NORMS = ("group", "batch", "multi_bn")
#: Narrows the second block's 3x3 conv below the default.  A multi-BN
#: norm dispatches on its own rate, so the norm that conv feeds is named
#: too (a no-op for GN and BN, which follow the arriving width).
NARROW = LayerProfile({"blocks.1.conv2": 0.25, "blocks.1.norm3": 0.25},
                      default=0.5)
POINTS = [*RATES, NARROW]
IDS = [*(f"r{rate}" for rate in RATES), "profile"]


def _model(norm):
    extra = {"rates": list(RATES)} if norm == "multi_bn" else {}
    return SlicedResNet.cifar_mini(num_classes=4, blocks=2, norm=norm,
                                   seed=0, **extra).eval()


def _live(model, x, profile):
    with no_grad(), slice_profile(profile):
        return model(Tensor(x)).data


def _features(model, x):
    """The forward pass up to (not including) the classifier head."""
    h = model.stem(Tensor(x))
    for block in model.blocks:
        h = block(h)
    return model.global_pool(model.final_norm(h).relu()).data


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(0).normal(
        size=(5, 3, 8, 8)).astype(np.float32)


@pytest.fixture(scope="module", params=NORMS)
def model(request):
    return _model(request.param)


@pytest.mark.parametrize("point", POINTS, ids=IDS)
def test_plan_matches_live(model, images, point):
    plan = compile_plan(model, point)
    assert sum(isinstance(step, ResidualStep) for step in plan.steps) == 4
    np.testing.assert_allclose(plan.run(images), _live(model, images, point),
                               rtol=1e-4, atol=1e-5)
    assert plan.param_bytes() // 4 == active_params(model, point)


@pytest.mark.parametrize("point", POINTS, ids=IDS)
def test_gn_materialized_matches_live(images, point):
    model = _model("group")
    deployed = materialize_subnet(model, point).eval()
    with no_grad():
        with slice_profile(point):
            live = _features(model, images)
            live_logits = model(Tensor(images)).data
        np.testing.assert_array_equal(_features(deployed, images), live)
        logits = deployed(Tensor(images)).data
    # The deployed head is a plain Linear, so the head's rescale is
    # folded into its weights (the live layer scales after the GEMM);
    # at a rescale that is not a power of two the last bit can differ.
    np.testing.assert_allclose(logits, live_logits, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("point", POINTS, ids=IDS)
def test_exact_widen_chain_is_from_scratch(model, images, point):
    start = point.default if isinstance(point, LayerProfile) else point
    plan = ResumablePlan(model, point)
    plan.run(images)
    for target in (0.5, 1.0):
        if target < start:
            continue
        np.testing.assert_array_equal(
            plan.widen(target), ResumablePlan(model, target).run(images),
            err_msg=f"widen to {target}")


@pytest.mark.parametrize("point", POINTS, ids=IDS)
def test_subset_widen_is_rows_of_full_widen(model, images, point):
    plan = ResumablePlan(model, point)
    plan.run(images)
    rows = np.array([0, 3])
    np.testing.assert_array_equal(plan.subset(rows).widen(1.0),
                                  plan.widen(1.0)[rows])


def test_layer_profile_reaches_block_convs():
    model = _model("group")
    block = model.blocks[0]
    assert block.conv1.slice_point == "blocks.0.conv1"
    full = block.conv1.active_out_channels(1.0)
    with slice_profile(LayerProfile({"blocks.0.conv1": 0.5})):
        assert block.conv1.active_out_channels() == full // 2
        assert block.conv2.active_out_channels() == full


@pytest.mark.parametrize("conv", ["blocks.0.conv3", "blocks.1.conv3"],
                         ids=["projection", "identity"])
def test_branch_width_mismatch_is_a_library_error(images, conv):
    """conv3 narrower than the projection shortcut or the block input."""
    model = _model("group")
    profile = LayerProfile({conv: 0.5})
    with pytest.raises(ShapeError, match="residual body"):
        _live(model, images, profile)
    with pytest.raises(PlanError, match="residual body"):
        compile_plan(model, profile)
    with pytest.raises(ReproError):
        ResumablePlan(model, profile).run(images)
