"""Property-style gradient sweep over the sliced layers.

Randomized (but seeded, hence reproducible) configurations of
``SlicedLinear`` / ``SlicedConv2d`` / ``SlicedGroupNorm`` — group count,
widths, rate, bias/rescale flags — each verified with central-difference
gradcheck *under an active slice rate*.  This pins the autograd path the
compiled plans are differentially tested against in ``test_plans.py``:
the plans are only as trustworthy as the sliced forward they mirror.

Layer parameters are cast to float64 and passed to ``check_gradients``
alongside the input, so the numeric probe perturbs weights and biases in
place and the analytic gradients of the *prefix-sliced* operands are
checked too (inactive prefix regions must receive exactly zero).

The conv and groupnorm sweeps run twice: once without a workspace arena
(numpy-allocated buffers, the reference conv backward) and once under an
active arena, which routes them through the pooled conv backward of the
training fast path and hands the group-norm kernel its buffers.  Both
runs check the one analytic group-norm backward.  The parametrize ids
keep their recorded names: ``composed`` is the run without an arena,
``fused`` the run under one.
"""

import contextlib

import numpy as np
import pytest

from repro.nn import LayerNorm, MultiHeadSelfAttention
from repro.slicing import (
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
    slice_rate,
)
from repro.tensor import Tensor, WorkspaceArena, check_gradients, use_workspace


def _kernel_ctx(pooled):
    return use_workspace(WorkspaceArena()) if pooled else (
        contextlib.nullcontext())

RATE_CHOICES = [0.25, 0.5, 0.75, 1.0]


def _to_float64(layer):
    for param in layer.parameters():
        param.data = param.data.astype(np.float64)
    return layer


def _case_rng(index, salt):
    return np.random.default_rng(10_000 * salt + index)


def _linear_cases(count=20):
    gen = np.random.default_rng(101)
    cases = []
    for i in range(count):
        cases.append((
            i,
            int(gen.integers(4, 11)),            # in_features
            int(gen.integers(3, 9)),             # out_features
            int(gen.choice([2, 3, 4])),          # num_groups
            float(gen.choice(RATE_CHOICES)),     # rate
            bool(gen.integers(0, 2)),            # bias
            bool(gen.integers(0, 2)),            # rescale
        ))
    return cases


def _conv_cases(count=20):
    gen = np.random.default_rng(202)
    cases = []
    for i in range(count):
        cases.append((
            i,
            int(gen.integers(2, 5)),             # in_channels
            int(gen.integers(2, 5)),             # out_channels
            int(gen.choice([1, 2])),             # kernel_size
            int(gen.integers(0, 2)),             # padding
            int(gen.choice([2, 4])),             # num_groups
            float(gen.choice(RATE_CHOICES)),     # rate
            bool(gen.integers(0, 2)),            # bias
        ))
    return cases


def _groupnorm_cases(count=20):
    gen = np.random.default_rng(303)
    cases = []
    for i in range(count):
        groups = int(gen.choice([2, 3, 4]))
        group_size = int(gen.integers(1, 4))
        cases.append((
            i,
            groups * group_size,                 # num_channels
            groups,                              # num_groups
            float(gen.choice(RATE_CHOICES)),     # rate
        ))
    return cases


@pytest.mark.parametrize(
    "index,in_f,out_f,groups,rate,bias,rescale", _linear_cases(),
    ids=lambda v: str(v) if isinstance(v, (int, float, bool)) else None)
def test_sliced_linear_gradients(index, in_f, out_f, groups, rate, bias,
                                 rescale):
    rng = _case_rng(index, 1)
    layer = _to_float64(SlicedLinear(in_f, out_f, bias=bias,
                                     rescale=rescale, num_groups=groups,
                                     rng=rng))
    in_w = layer.in_partition.width_for(rate)
    x = Tensor(rng.normal(size=(2, in_w)), requires_grad=True,
               dtype=np.float64)

    def func(inputs):
        with slice_rate(rate):
            return layer(inputs[0])

    check_gradients(func, [x] + layer.parameters())


@pytest.mark.parametrize("fused", [False, True], ids=["composed", "fused"])
@pytest.mark.parametrize(
    "index,in_ch,out_ch,kernel,padding,groups,rate,bias", _conv_cases(),
    ids=lambda v: str(v) if isinstance(v, (int, float, bool)) else None)
def test_sliced_conv2d_gradients(index, in_ch, out_ch, kernel, padding,
                                 groups, rate, bias, fused):
    rng = _case_rng(index, 2)
    layer = _to_float64(SlicedConv2d(in_ch, out_ch, kernel,
                                     padding=padding, bias=bias,
                                     num_groups=groups, rng=rng))
    in_w = layer.in_partition.width_for(rate)
    x = Tensor(rng.normal(size=(2, in_w, 4, 4)), requires_grad=True,
               dtype=np.float64)

    def func(inputs):
        with slice_rate(rate):
            return layer(inputs[0])

    with _kernel_ctx(fused):
        check_gradients(func, [x] + layer.parameters())


@pytest.mark.parametrize("fused", [False, True], ids=["composed", "fused"])
@pytest.mark.parametrize(
    "index,channels,groups,rate", _groupnorm_cases(),
    ids=lambda v: str(v) if isinstance(v, (int, float, bool)) else None)
def test_sliced_groupnorm_gradients(index, channels, groups, rate, fused):
    rng = _case_rng(index, 3)
    layer = SlicedGroupNorm(channels, num_groups=groups)
    # Randomize the affine parameters: gradcheck through the default
    # gamma=1 / beta=0 would leave scale paths untested.
    layer.weight.data = rng.normal(size=channels)
    layer.bias.data = rng.normal(size=channels)
    _to_float64(layer)
    active = max(1, min(round(rate * layer.num_groups),
                        layer.num_groups)) * layer.group_size
    x = Tensor(rng.normal(size=(2, active, 3, 3)), requires_grad=True,
               dtype=np.float64)

    def func(inputs):
        with slice_rate(rate):
            return layer(inputs[0])

    with _kernel_ctx(fused):
        check_gradients(func, [x] + layer.parameters())


def _layernorm_cases(count=15):
    gen = np.random.default_rng(404)
    cases = []
    for i in range(count):
        groups = int(gen.choice([2, 4]))
        group_size = int(gen.integers(1, 4))
        cases.append((
            i,
            groups * group_size,                 # num_features
            groups,                              # num_groups
            float(gen.choice(RATE_CHOICES)),     # rate
        ))
    return cases


@pytest.mark.parametrize(
    "index,features,groups,rate", _layernorm_cases(),
    ids=lambda v: str(v) if isinstance(v, (int, float, bool)) else None)
def test_layer_norm_gradients(index, features, groups, rate):
    """The analytic LayerNorm backward, at every arriving slice width."""
    rng = _case_rng(index, 4)
    layer = LayerNorm(features)
    # Randomized affine parameters, as in the groupnorm sweep: the
    # default gamma=1 / beta=0 would leave scale paths untested.
    layer.weight.data = rng.normal(size=features)
    layer.bias.data = rng.normal(size=features)
    _to_float64(layer)
    snapped = max(1, min(round(rate * groups), groups))
    width = round(features * snapped / groups)
    x = Tensor(rng.normal(size=(2, 3, width)), requires_grad=True,
               dtype=np.float64)

    def func(inputs):
        with slice_rate(rate):
            return layer(inputs[0])

    check_gradients(func, [x] + layer.parameters())


def _attention_cases(count=14):
    gen = np.random.default_rng(505)
    cases = []
    for i in range(count):
        heads = int(gen.integers(2, 5))
        head_dim = int(gen.integers(2, 4))
        cases.append((
            i,
            heads * head_dim,                    # embed_dim
            heads,                               # num_heads
            head_dim,                            # head_dim
            int(gen.choice([2, 4])),             # num_groups (embed axis)
            float(gen.choice(RATE_CHOICES)),     # rate
            bool(gen.integers(0, 2)),            # causal
            bool(gen.integers(0, 2)),            # batch_first
        ))
    return cases


@pytest.mark.parametrize(
    "index,embed,heads,head_dim,groups,rate,causal,batch_first",
    _attention_cases(),
    ids=lambda v: str(v) if isinstance(v, (int, float, bool)) else None)
def test_attention_gradients(index, embed, heads, head_dim, groups, rate,
                             causal, batch_first):
    """Packed-QKV attention under grouped head slicing (and the causal
    mask path), gradchecked with the head-group prefix active."""
    rng = _case_rng(index, 5)
    layer = _to_float64(MultiHeadSelfAttention(
        embed, heads, head_dim=head_dim, causal=causal,
        batch_first=batch_first, num_groups=groups, rng=rng))
    width = layer.embed_partition.width_for(rate)
    shape = (2, 3, width) if batch_first else (3, 2, width)
    x = Tensor(rng.normal(size=shape), requires_grad=True,
               dtype=np.float64)

    def func(inputs):
        with slice_rate(rate):
            return layer(inputs[0])

    check_gradients(func, [x] + layer.parameters())
