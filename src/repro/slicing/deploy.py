"""Materialize a deployed subnet as a standalone plain network.

The paper's conclusion notes that "model slicing is readily applicable to
the model compression scenario by deploying a proper subnet".  This
module makes that concrete: :func:`materialize_subnet` produces an
independent network built from *plain* :mod:`repro.nn` layers whose
weights are the active prefixes at the chosen rate — nothing of the full
model is retained, so the deployed artifact genuinely shrinks on disk and
in memory.

The subnet is compiled by :func:`~repro.slicing.plans.compile_plan`, and
each layer in its :attr:`~repro.slicing.plans.InferencePlan.layer_steps`
gets a plain replacement filled from its step's arrays, rescale factors
baked in.  Widths are therefore worked out once, by the walk compiled
plans use, and the deployed network holds exactly the parameters
:func:`~repro.metrics.flops.active_params` counts.
"""

from __future__ import annotations

import copy

import numpy as np

from ..errors import ConfigError
from ..nn.attention import MultiHeadSelfAttention
from ..nn.conv import Conv2d
from ..nn.embedding import Embedding, LearnedPositional
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.norm import BatchNorm2d, GroupNorm, LayerNorm
from ..nn.recurrent import GRUCell, LSTMCell, RNNCell
from . import plans
from .layers import SlicedBatchNorm2d


def _fill(module: Module, **arrays) -> Module:
    """Copy each array into the like-named parameter of ``module``."""
    for name, value in arrays.items():
        with getattr(module, name).mutate() as data:
            data[...] = value
    return module


def _rng() -> np.random.Generator:
    # Plain layers draw an initialization that _fill overwrites.
    return np.random.default_rng(0)


def _linear(step: plans.LinearStep) -> Linear:
    # The sliced layer rescales (Wx + b); bake the same factor into both.
    out_w, in_w = step.weight.shape
    plain = Linear(in_w, out_w, bias=step.bias is not None, rng=_rng())
    if step.bias is not None:
        _fill(plain, bias=step.bias * step.scale)
    return _fill(plain, weight=step.weight * step.scale)


def _conv(step: plans.ConvStep) -> Conv2d:
    plain = Conv2d(step.in_channels, step.out_channels, step.kernel_size,
                   stride=step.stride, padding=step.padding,
                   bias=step.bias is not None, rng=_rng())
    if step.bias is not None:
        _fill(plain, bias=step.bias)
    return _fill(plain, weight=step.weight)


def _group_norm(step: plans.GroupNormStep) -> GroupNorm:
    plain = GroupNorm(step.channels // step.group_size, step.channels,
                      eps=step.eps)
    return _fill(plain, weight=step.weight, bias=step.bias)


def _batch_norm(step: plans.BatchNormStep) -> BatchNorm2d:
    plain = BatchNorm2d(step.channels, eps=step.eps)
    plain.running_mean = step.running_mean.copy()
    plain.running_var = step.running_var.copy()
    return _fill(plain, weight=step.weight, bias=step.bias)


def _scaled_cell(cell_type):
    """Builder of a plain RNN or LSTM cell, the rescale baked into every
    gate (an LSTM step packs its gates as the plain cell does)."""
    def build(step):
        plain = cell_type(step.in_width, step.hidden, rng=_rng())
        return _fill(plain, weight_ih=step.weight_ih * step.scale,
                     weight_hh=step.weight_hh * step.scale,
                     bias=step.bias * step.scale)
    return build


def _gru_cell(step: plans.GRUCellStep) -> GRUCell:
    # The rescale applies to the r and z gates only, as in the sliced cell.
    arrays = {"weight_ih": step.weight_ih.copy(),
              "weight_hh": step.weight_hh.copy(), "bias": step.bias.copy()}
    for array in arrays.values():
        array[:2 * step.hidden] *= step.scale
    return _fill(GRUCell(step.in_width, step.hidden, rng=_rng()), **arrays)


def _attention(step: plans.AttentionStep) -> MultiHeadSelfAttention:
    plain = MultiHeadSelfAttention(
        step.proj_weight.shape[0], step.heads, head_dim=step.head_dim,
        causal=step.causal, batch_first=step.batch_first, sliceable=False,
        rng=_rng(),
    )
    return _fill(plain, qkv_weight=step.qkv_weight, qkv_bias=step.qkv_bias,
                 proj_weight=step.proj_weight, proj_bias=step.proj_bias)


def _layer_norm(step: plans.LayerNormStep) -> LayerNorm:
    plain = LayerNorm(step.weight.shape[0], eps=step.eps)
    return _fill(plain, weight=step.weight, bias=step.bias)


def _positional(step: plans.PositionalStep) -> LearnedPositional:
    plain = LearnedPositional(*step.weight.shape,
                              batch_first=step.batch_first, rng=_rng())
    return _fill(plain, weight=step.weight)


def _embedding(step: plans.EmbeddingStep) -> Embedding:
    return _fill(Embedding(*step.weight.shape, rng=_rng()),
                 weight=step.weight)


_BUILDERS = {
    plans.LinearStep: _linear,
    plans.DenseStep: _linear,
    plans.ConvStep: _conv,
    plans.GroupNormStep: _group_norm,
    plans.BatchNormStep: _batch_norm,
    plans.RNNCellStep: _scaled_cell(RNNCell),
    plans.LSTMCellStep: _scaled_cell(LSTMCell),
    plans.GRUCellStep: _gru_cell,
    plans.AttentionStep: _attention,
    plans.LayerNormStep: _layer_norm,
    plans.PositionalStep: _positional,
    plans.EmbeddingStep: _embedding,
}


def materialize_subnet(model: Module, rate) -> Module:
    """Return a standalone plain copy of ``Subnet-rate``.

    ``rate`` may be a scalar or a
    :class:`~repro.slicing.profile.SliceProfile`.  Each layer of the
    compiled plan becomes a plain layer holding only its step, at the
    width the plan threads to it, so non-uniform profiles deploy with the
    exact widths they run at.

    The original model is untouched.  Everything else (activations,
    pooling, containers, composite blocks) is deep-copied.  The result no
    longer responds to ``slice_rate`` — it *is* the subnet.

    Raises
    ------
    ConfigError
        If the model has no sliced layer, or contains a
        :class:`SlicedBatchNorm2d`, whose running statistics are not
        meaningful for a single deployed width.
    PlanError
        If the model has no plan (an undeclared container) or a layer
        cannot run at ``rate`` (e.g. a
        :class:`~repro.slicing.layers.MultiBatchNorm2d` with no branch
        for the width that arrives).
    """
    modules = list(model.modules())
    if all(getattr(m, "slice_point", None) is None for m in modules):
        raise ConfigError("model contains no sliceable layers")
    if any(isinstance(m, SlicedBatchNorm2d) for m in modules):
        raise ConfigError(
            "cannot materialize SlicedBatchNorm2d; train with "
            "group normalization for deployable subnets"
        )
    clone = copy.deepcopy(model)
    owners = {id(child): (parent, name) for parent in clone.modules()
              for name, child in parent._modules.items()}
    for old, step in plans.compile_plan(clone, rate).layer_steps:
        build = _BUILDERS.get(type(step))
        if build is None:  # parameter-free: pools and dropout stay
            continue
        parent, name = owners[id(old)]
        new = build(step)
        parent.register_module(name, new)
        # Composite modules may alias children in plain lists
        # (e.g. SlicedVGG._ops, SlicedLSTM.cells); patch those.
        _patch_aliases(parent, old, new)
    return clone


def _patch_aliases(parent: Module, old: Module, new: Module) -> None:
    """Replace references to ``old`` inside plain-list attributes."""
    for value in vars(parent).values():
        if isinstance(value, list):
            for i, item in enumerate(value):
                if item is old:
                    value[i] = new
                elif (isinstance(item, tuple) and len(item) == 2
                        and item[1] is old):
                    value[i] = (item[0], new)
