"""The deployment and counting contract as one harness.

For every declared family (through its ``repro.cli._demo_model``) and
the single-layer ``Sequential`` models of ``tests/test_sliced_layers.py``
and ``tests/test_sliced_recurrent.py``, hypothesis draws a grid rate, a
batch of 1-5 rows and an input seed, and the harness asserts:

* **one size**: ``active_params == materialize_subnet(m, r).num_parameters()
  == param_bytes(m, r) // 4 == compile_plan(m, r).param_bytes() // 4``;
* **one function**: the materialized subnet, the compiled plan and the
  live sliced forward agree within the tolerance docs/plans.md states
  for the model's layers.

Raw-bit equality is asserted only where it was measured to hold, by the
bitwise tests of ``test_plans.py``, ``test_resnet_plans.py`` and
``test_transformer.py``: a one-row dense product's bits depend on the
operand layout, so no path here is bitwise at every batch size.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _demo_model
from repro.metrics import active_params, param_bytes
from repro.nn import Sequential
from repro.slicing import (SlicedConv2d, SlicedGRUCell, SlicedGroupNorm,
                           SlicedLinear, SlicedLSTMCell, SlicedRNNCell,
                           compile_plan, materialize_subnet, slice_profile)
from repro.slicing.families import families
from repro.tensor import Tensor, no_grad

GRID = [i / 8 for i in range(1, 9)]

# docs/plans.md, "Tolerances": (rtol, atol) of the plan and the subnet
# against the live forward.  Dense and recurrent steps multiply by
# pre-transposed operands; conv, norm, pooling and transformer steps run
# the live kernels, so only a dense head's operand layout differs.
DENSE = (1e-4, 1e-5)
KERNEL = (1e-5, 1e-6)
FAMILY_TOLERANCE = {"mlp": DENSE, "sequential": DENSE, "nnlm": DENSE,
                    "cnn": KERNEL, "resnet": KERNEL, "tenc": KERNEL,
                    "tlm": KERNEL}

# name -> (layer builder, input row shape from its compiled step,
#          tolerance)
SINGLE_LAYERS = {
    "linear": (lambda rng: SlicedLinear(16, 16, rng=rng),
               lambda step: (step.weight.shape[1],), DENSE),
    "conv": (lambda rng: SlicedConv2d(16, 16, 3, bias=False, rng=rng),
             lambda step: (step.in_channels, 5, 5), KERNEL),
    "groupnorm": (lambda rng: SlicedGroupNorm(8, num_groups=4),
                  lambda step: (step.channels, 3, 3), KERNEL),
    "rnn_cell": (lambda rng: SlicedRNNCell(8, 16, slice_input=False,
                                           rng=rng),
                 lambda step: (step.in_width,), DENSE),
    "lstm_cell": (lambda rng: SlicedLSTMCell(8, 8, slice_input=False,
                                             rng=rng),
                  lambda step: (step.in_width,), DENSE),
    "gru_cell": (lambda rng: SlicedGRUCell(8, 8, slice_input=False,
                                           rng=rng),
                 lambda step: (step.in_width,), DENSE),
}


@cache
def _case(name: str):
    """``(model, row_shape(rate), tolerance)`` of one harness case."""
    if name in FAMILY_TOLERANCE:
        model, row_shape = _demo_model(name, seed=0)
        return model, lambda rate: row_shape, FAMILY_TOLERANCE[name]
    build, row_of, tolerance = SINGLE_LAYERS[name]
    model = Sequential(build(np.random.default_rng(0))).eval()
    return (model,
            lambda rate: row_of(compile_plan(model, rate).steps[0]),
            tolerance)


def _inputs(row_shape, batch: int, seed: int):
    rng = np.random.default_rng(seed)
    if row_shape is None:  # time-major token ids, 64-word vocabulary
        return rng.integers(0, 64, size=(3, batch))
    return rng.normal(size=(batch,) + row_shape).astype(np.float32)


def _arrays(out):
    """A forward's output as a tuple of arrays (cells return states)."""
    outs = out if isinstance(out, tuple) else (out,)
    return tuple(o.data if isinstance(o, Tensor) else o for o in outs)


def test_every_family_is_in_the_harness():
    assert {family.name for family in families()} == set(FAMILY_TOLERANCE)


@pytest.mark.parametrize("name", [*FAMILY_TOLERANCE, *SINGLE_LAYERS])
@settings(max_examples=25)
@given(rate=st.sampled_from(GRID), batch=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_one_size_and_one_function(name, rate, batch, seed):
    model, row_shape, (rtol, atol) = _case(name)
    plan = compile_plan(model, rate)
    deployed = materialize_subnet(model, rate).eval()

    count = active_params(model, rate)
    assert count == deployed.num_parameters()
    assert count == param_bytes(model, rate) // 4
    assert count == plan.param_bytes() // 4

    x = _inputs(row_shape(rate), batch, seed)
    arg = x if x.dtype.kind in "iu" else Tensor(x)
    with no_grad():
        with slice_profile(rate):
            live = _arrays(model(arg))
        shipped = _arrays(deployed(arg))
    compiled = _arrays(plan.run(x))
    for leg, outs in (("plan", compiled), ("subnet", shipped)):
        assert len(outs) == len(live)
        for got, want in zip(outs, live):
            np.testing.assert_allclose(
                got, want, rtol=rtol, atol=atol,
                err_msg=f"{leg} vs live, {name} at {rate}, batch {batch}")
