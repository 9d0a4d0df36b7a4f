"""The family declaration table drives both plan kinds.

Every declared family must compile to a plan and resume: run narrow,
widen exactly to a from-scratch pass.  A new family is covered here by
adding its declaration (and its ``--model`` demo).  Every bundled model
and every ``Sequential`` of sliced layers is declared; a model without a
declaration has no plan, no parameter count and no deployment.
"""

import numpy as np
import pytest

import repro.models
from repro.cli import _demo_model
from repro.errors import PlanError
from repro.metrics import active_params, param_bytes
from repro.models import BottleneckBlock, TransformerBlock
from repro.nn import Linear, MaxPool2d, Module, ReLU, Sequential
from repro.slicing import (PlanCache, ResumablePlan, SlicedLinear,
                           compile_plan, materialize_subnet)
from repro.slicing.families import families, family_of


def _batch(row_shape, rng):
    if row_shape is None:
        return rng.integers(0, 64, size=(5, 2))
    return rng.normal(size=(3,) + row_shape).astype(np.float32)


@pytest.mark.parametrize("family", families(), ids=lambda f: f.name)
def test_declared_family_compiles_and_resumes(family, rng):
    model, row_shape = _demo_model(family.name, seed=0)
    assert family_of(model) is family
    x = _batch(row_shape, rng)
    for rate in (0.5, 1.0):
        plan = compile_plan(model, rate)
        assert plan.family is family
        assert len(plan.steps) == len(family.ops(model))

    resumable = ResumablePlan(model, 0.5)
    resumable.run(x)
    widened = resumable.widen(1.0)
    np.testing.assert_array_equal(widened,
                                  ResumablePlan(model, 1.0).run(x))
    np.testing.assert_allclose(widened, compile_plan(model, 1.0).run(x),
                               rtol=1e-4, atol=1e-5)

    narrow = ResumablePlan(model, 0.5)
    narrow.run(x)
    if family.row_subset:
        rows = np.array([0, 2])
        np.testing.assert_array_equal(narrow.subset(rows).widen(1.0),
                                      widened[rows])
    else:
        with pytest.raises(PlanError):
            narrow.subset([0])


def test_every_bundled_model_is_declared():
    # Blocks are parts of a model, not models.
    parts = (BottleneckBlock, TransformerBlock)
    exported = [getattr(repro.models, name) for name in repro.models.__all__]
    models = [obj for obj in exported if isinstance(obj, type)
              and issubclass(obj, Module) and obj not in parts]
    assert len(models) == 6
    for cls in models:
        assert any(issubclass(cls, f.model_type) for f in families()), cls


class _Wrapper(Module):
    """A custom container of one sliced layer: no family declares it."""

    def __init__(self):
        super().__init__()
        self.layer = SlicedLinear(8, 8, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.layer(x)


def test_undeclared_model_has_no_plan():
    model = _Wrapper()
    assert family_of(model) is None
    with pytest.raises(PlanError, match="no plan for model _Wrapper"):
        compile_plan(model, 0.5)
    with pytest.raises(PlanError):
        PlanCache().get(model, 0.5)
    with pytest.raises(PlanError):
        ResumablePlan(model, 0.5)


def test_undeclared_model_has_no_count_or_deployment():
    """Counts and deployment read the compiled plan, so an undeclared
    container gets the same error from them as from compile_plan."""
    model = _Wrapper()
    for count in (active_params, param_bytes, materialize_subnet):
        with pytest.raises(PlanError, match="no plan for model _Wrapper"):
            count(model, 0.5)


class TestSequentialOps:
    def _linear(self, **kwargs):
        return SlicedLinear(8, 8, rng=np.random.default_rng(0), **kwargs)

    def test_relu_fuses_into_the_op_before(self):
        model = Sequential(self._linear(slice_input=False), ReLU(),
                           self._linear(slice_output=False))
        assert [(op.kind, op.relu) for op in family_of(model).ops(model)] \
            == [("linear", True), ("linear", False)]
        assert len(compile_plan(model, 0.5).steps) == 2

    @pytest.mark.parametrize("children", [
        lambda lin: (lin, Linear(8, 8)),          # a plain, unsliced layer
        lambda lin: (ReLU(), lin),                # nothing to fuse into
        lambda lin: (lin, ReLU(), ReLU()),        # fused already
        lambda lin: (lin, MaxPool2d(2), ReLU()),  # a pool does not fuse
        lambda lin: (Sequential(lin),),           # a nested container
    ], ids=["plain-linear", "leading-relu", "double-relu", "pool-relu",
            "nested"])
    def test_child_without_an_op_names_it(self, children):
        model = Sequential(*children(self._linear()))
        with pytest.raises(PlanError, match="Sequential child"):
            compile_plan(model, 0.5)
