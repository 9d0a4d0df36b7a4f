"""Materialize a deployed subnet as a standalone plain network.

The paper's conclusion notes that "model slicing is readily applicable to
the model compression scenario by deploying a proper subnet".  This
module makes that concrete: :func:`materialize_subnet` walks a sliced
model and produces an independent network built from *plain*
:mod:`repro.nn` layers whose weights are the active prefixes at the
chosen rate — nothing of the full model is retained, so the deployed
artifact genuinely shrinks on disk and in memory.

Rescaling factors (``full_in / active_in``) are baked into the
materialized weights, so the deployed network computes exactly what the
sliced model computes at that rate.
"""

from __future__ import annotations

import copy

import numpy as np

from ..errors import ConfigError
from ..nn.attention import MultiHeadSelfAttention
from ..nn.conv import Conv2d
from ..nn.embedding import Embedding
from ..nn.linear import Linear
from ..nn.module import Module
from ..nn.norm import GroupNorm
from ..nn.norm import BatchNorm2d, LayerNorm
from ..nn.module import Parameter
from ..nn.recurrent import GRUCell, LSTMCell, RNNCell
from .plans import _linear_scale, _recurrent_scale
from .profile import as_profile, named_slice_points
from .layers import (
    MultiBatchNorm2d,
    SlicedBatchNorm2d,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
)
from .recurrent import SlicedGRUCell, SlicedLSTMCell, SlicedRNNCell


def _set(param: Parameter, value, key=...) -> None:
    """Write into a parameter through :meth:`Parameter.mutate`."""
    with param.mutate() as data:
        data[key] = value


def _linear_from(layer: SlicedLinear, rate: float, in_rate: float) -> Linear:
    out_w = layer.out_partition.width_for(rate) if layer.slice_output \
        else layer.out_features
    in_w = layer.in_partition.width_for(in_rate) if layer.slice_input \
        else layer.in_features
    plain = Linear(in_w, out_w, bias=layer.bias is not None,
                   rng=np.random.default_rng(0))
    scale = _linear_scale(layer, in_w)
    _set(plain.weight, layer.weight.data[:out_w, :in_w] * scale)
    if layer.bias is not None:
        # The sliced layer rescales (Wx + b); bake the same factor in.
        _set(plain.bias, layer.bias.data[:out_w] * scale)
    return plain


def _conv_from(layer: SlicedConv2d, rate: float, in_rate: float) -> Conv2d:
    out_w = layer.active_out_channels(rate)
    in_w = layer.in_partition.width_for(in_rate) if layer.slice_input \
        else layer.in_channels
    plain = Conv2d(in_w, out_w, layer.kernel_size, stride=layer.stride,
                   padding=layer.padding, bias=layer.bias is not None,
                   rng=np.random.default_rng(0))
    _set(plain.weight, layer.weight.data[:out_w, :in_w])
    if layer.bias is not None:
        _set(plain.bias, layer.bias.data[:out_w])
    return plain


def _groupnorm_from(layer: SlicedGroupNorm, rate: float,
                    in_rate: float) -> GroupNorm:
    # Norm width follows the arriving activation (the feeding layer's
    # rate), exactly as the live input-width-driven forward does.
    groups = max(1, min(round(in_rate * layer.num_groups), layer.num_groups))
    channels = groups * layer.group_size
    plain = GroupNorm(groups, channels, eps=layer.eps)
    _set(plain.weight, layer.weight.data[:channels])
    _set(plain.bias, layer.bias.data[:channels])
    return plain


def _rnn_cell_from(cell: SlicedRNNCell, rate: float,
                   in_rate: float) -> RNNCell:
    hidden = cell.partition.width_for(rate)
    in_w = cell.in_partition.width_for(in_rate) if cell.slice_input \
        else cell.input_size
    plain = RNNCell(in_w, hidden, rng=np.random.default_rng(0))
    scale = _recurrent_scale(cell, in_w, hidden)
    _set(plain.weight_ih, cell.weight_ih.data[:hidden, :in_w] * scale)
    _set(plain.weight_hh, cell.weight_hh.data[:hidden, :hidden] * scale)
    _set(plain.bias, cell.bias.data[:hidden] * scale)
    return plain


def _lstm_cell_from(cell: SlicedLSTMCell, rate: float,
                    in_rate: float) -> LSTMCell:
    hidden = cell.partition.width_for(rate)
    in_w = cell.in_partition.width_for(in_rate) if cell.slice_input \
        else cell.input_size
    plain = LSTMCell(in_w, hidden, rng=np.random.default_rng(0))
    scale = _recurrent_scale(cell, in_w, hidden)
    for k, gate in enumerate(("i", "f", "g", "o")):
        w_ih = getattr(cell, f"w_ih_{gate}").data[:hidden, :in_w]
        w_hh = getattr(cell, f"w_hh_{gate}").data[:hidden, :hidden]
        bias = getattr(cell, f"bias_{gate}").data[:hidden]
        rows = slice(k * hidden, (k + 1) * hidden)
        _set(plain.weight_ih, w_ih * scale, rows)
        _set(plain.weight_hh, w_hh * scale, rows)
        _set(plain.bias, bias * scale, rows)
    return plain


def _gru_cell_from(cell: SlicedGRUCell, rate: float,
                   in_rate: float) -> GRUCell:
    hidden = cell.partition.width_for(rate)
    in_w = cell.in_partition.width_for(in_rate) if cell.slice_input \
        else cell.input_size
    plain = GRUCell(in_w, hidden, rng=np.random.default_rng(0))
    scale = _recurrent_scale(cell, in_w, hidden)
    for k, gate in enumerate(("r", "z", "n")):
        w_ih = getattr(cell, f"w_ih_{gate}").data[:hidden, :in_w]
        w_hh = getattr(cell, f"w_hh_{gate}").data[:hidden, :hidden]
        bias = getattr(cell, f"bias_{gate}").data[:hidden]
        rows = slice(k * hidden, (k + 1) * hidden)
        _set(plain.weight_ih, w_ih * scale, rows)
        _set(plain.weight_hh, w_hh * scale, rows)
        _set(plain.bias_ih, bias * scale, rows)
    return plain


def _attention_from(layer: MultiHeadSelfAttention, rate: float,
                    in_rate: float) -> MultiHeadSelfAttention:
    """A non-sliceable attention holding only the active head prefix.

    ``rate`` picks the head count (whole trailing heads drop, so each
    retained head keeps its full ``head_dim``); the arriving rate picks
    the residual width the QKV columns and output rows follow.
    """
    if not layer.sliceable:
        return copy.deepcopy(layer)
    heads = layer.head_partition.groups_for(rate)
    head_dim = layer.head_dim
    inner = heads * head_dim
    width = layer.embed_partition.width_for(in_rate)
    plain = MultiHeadSelfAttention(
        width, heads, head_dim=head_dim, causal=layer.causal,
        batch_first=layer.batch_first, sliceable=False,
        rng=np.random.default_rng(0),
    )
    _set(plain.qkv_weight, layer.qkv_weight.data[:3 * inner, :width])
    _set(plain.qkv_bias, layer.qkv_bias.data[:3 * inner])
    _set(plain.proj_weight, layer.proj_weight.data[:width, :inner])
    _set(plain.proj_bias, layer.proj_bias.data[:width])
    return plain


def _layernorm_from(layer: LayerNorm, rate: float,
                    in_rate: float) -> LayerNorm:
    # Like GroupNorm, width follows the arriving activation.
    groups = max(1, min(round(in_rate * layer.num_groups), layer.num_groups))
    width = round(layer.num_features * groups / layer.num_groups)
    plain = LayerNorm(width, eps=layer.eps,
                      num_groups=min(layer.num_groups, width))
    _set(plain.weight, layer.weight.data[:width])
    _set(plain.bias, layer.bias.data[:width])
    return plain


def _embedding_from(layer: Embedding, rate: float, in_rate: float) -> Embedding:
    # Width controllers shrink to their active columns; plain embeddings
    # materialize at full width (nothing to slice).
    width = layer.out_partition.width_for(rate) if layer.slice_output \
        else layer.embedding_dim
    plain = Embedding(layer.num_embeddings, width,
                      rng=np.random.default_rng(0))
    _set(plain.weight, layer.weight.data[:, :width])
    return plain


def _multi_bn_from(layer: MultiBatchNorm2d, rate: float,
                   in_rate: float) -> BatchNorm2d:
    # The arriving width (feeding conv's rate) picks the statistics
    # branch, matching the width the live forward would normalize.
    best = min(layer._rate_keys, key=lambda r: abs(r - in_rate))
    source: BatchNorm2d = getattr(layer, f"bn_{layer._key(best)}")
    plain = BatchNorm2d(source.num_features, eps=source.eps,
                        momentum=source.momentum)
    _set(plain.weight, source.weight.data)
    _set(plain.bias, source.bias.data)
    plain.running_mean = source.running_mean.copy()
    plain.running_var = source.running_var.copy()
    return plain


_CONVERTERS = [
    (SlicedLinear, _linear_from),
    (SlicedConv2d, _conv_from),
    (SlicedGroupNorm, _groupnorm_from),
    (SlicedLSTMCell, _lstm_cell_from),
    (SlicedRNNCell, _rnn_cell_from),
    (SlicedGRUCell, _gru_cell_from),
    (MultiBatchNorm2d, _multi_bn_from),
    (MultiHeadSelfAttention, _attention_from),
    (LayerNorm, _layernorm_from),
    (Embedding, _embedding_from),
]


def materialize_subnet(model: Module, rate) -> Module:
    """Return a standalone plain copy of ``Subnet-rate``.

    ``rate`` may be a scalar or a
    :class:`~repro.slicing.profile.SliceProfile`; each sliced layer is
    materialized at the rate the profile resolves for its slice-point
    name.  Input widths are *threaded*: each input-sliced layer consumes
    the width produced by the previous width-controlling slice point (in
    slice-point traversal order, which matches dataflow order for the
    sequential bundled models), so non-uniform profiles deploy with the
    exact widths the live forward produces.

    The original model is untouched.  Sliced layers become plain layers
    holding only the active prefix weights (with any rescaling baked in);
    everything else (activations, pooling, containers, composite blocks)
    is deep-copied.  The result no longer responds to ``slice_rate`` —
    it *is* the subnet.

    Raises
    ------
    ConfigError
        If the model contains a sliced layer type with no converter
        (e.g. :class:`SlicedBatchNorm2d`, whose running statistics are
        not meaningful for a single deployed width).
    """
    profile = as_profile(rate)
    clone = copy.deepcopy(model)
    replaced = 0

    # The rate of the activation *arriving* at each sliced module: the
    # most recent width-controlling slice point before it in traversal
    # order (dataflow order for the sequential bundled models).
    in_rates: dict[int, float] = {}
    feeder = profile.rate_for(None)
    for point, module in named_slice_points(clone):
        in_rates[id(module)] = feeder
        if isinstance(module, (SlicedLinear, SlicedConv2d)):
            if module.slice_output:
                feeder = profile.rate_for(point)
        elif isinstance(module, (SlicedRNNCell, SlicedLSTMCell,
                                 SlicedGRUCell)):
            feeder = profile.rate_for(point)
        elif isinstance(module, Embedding) and module.slice_output:
            # Width-controller embedding: everything downstream follows
            # its width.  (Attention is *not* a feeder — its output width
            # equals its input width, like norms.)
            feeder = profile.rate_for(point)

    def visit(module: Module) -> None:
        nonlocal replaced
        for name, child in list(module._modules.items()):
            converted = None
            for kind, converter in _CONVERTERS:
                if type(child) is kind:
                    layer_rate = profile.rate_for(
                        getattr(child, "slice_point", None))
                    in_rate = in_rates.get(id(child), layer_rate)
                    converted = converter(child, layer_rate, in_rate)
                    break
            if converted is not None:
                module.register_module(name, converted)
                replaced += 1
                # Composite modules may alias children in plain lists
                # (e.g. SlicedVGG._ops, SlicedLSTM.cells); patch those.
                _patch_aliases(module, child, converted)
            else:
                if isinstance(child, SlicedBatchNorm2d):
                    raise ConfigError(
                        "cannot materialize SlicedBatchNorm2d; train with "
                        "group normalization for deployable subnets"
                    )
                visit(child)

    visit(clone)
    if replaced == 0:
        raise ConfigError("model contains no sliceable layers")
    return clone


def _patch_aliases(parent: Module, old: Module, new: Module) -> None:
    """Replace references to ``old`` inside plain-list attributes."""
    for attr, value in vars(parent).items():
        if isinstance(value, list):
            for i, item in enumerate(value):
                if item is old:
                    value[i] = new
                elif (isinstance(item, tuple) and len(item) == 2
                        and item[1] is old):
                    value[i] = (item[0], new)
