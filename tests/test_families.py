"""The family declaration table drives both plan kinds.

Every declared family must compile to a real (non-fallback) plan and
resume: run narrow, widen exactly to a from-scratch pass.  A new family
is covered here by adding its declaration (and its ``--model`` demo).
"""

import numpy as np
import pytest

from repro.cli import _demo_model
from repro.errors import PlanError
from repro.models import SlicedResNet
from repro.slicing import FallbackPlan, ResumablePlan, compile_plan
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
        assert plan.compiled and not plan.fallback
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


def test_undeclared_family_falls_back():
    model = SlicedResNet.cifar_mini(num_classes=4, blocks=1, seed=0)
    assert family_of(model) is None
    assert isinstance(compile_plan(model, 0.5), FallbackPlan)
    with pytest.raises(PlanError):
        ResumablePlan(model, 0.5)
