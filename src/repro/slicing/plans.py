"""Compiled per-rate inference plans: pay the slicing cost once per rate.

Every sliced forward pass re-derives the same computation: it slices
weight prefixes out of the full tensors, re-applies the
``full_in / active_in`` rescale, and builds an autograd graph that
inference never uses.  A plan bakes all of that ahead of time for one
``(model, rate)`` pair:

* **contiguous weight prefixes** — each step copies exactly the
  ``Subnet-r`` prefix of its layer's parameters into contiguous arrays
  (the rescale factor folded in), so the hot loop is plain BLAS over
  dense operands;
* **no autograd** — steps are pure-numpy callables on ``ndarray``s, no
  ``Tensor`` graph is ever built;
* **allocation-lean execution** — the convolution step keeps scratch
  buffers (padded input, im2col matrix, output) keyed on the input
  shape, so steady-state serving does not re-allocate per request.

Plans are *snapshots*: compiling copies the weights, so a plan never
observes later parameter mutation.  Staleness is detected instead — each
:class:`~repro.nn.module.Parameter` carries a version counter bumped on
every rebinding write (``param.data = ...``, ``param.data -= ...``), and
a plan records the ``(parameter, version)`` pairs it was compiled from.
:meth:`InferencePlan.is_valid` re-walks the model and fails on any
version bump, identity change (e.g. ``upgrade_model`` swapped layers) or
rebound running-statistics buffer, and :class:`PlanCache` recompiles.

Models whose class has no declaration in :mod:`repro.slicing.families`
get a :class:`FallbackPlan` that runs the ordinary sliced forward under
``no_grad`` — correct, never stale, just not fast; the
``plan_fallbacks_total`` counter records how often that happens.
Plans always execute **eval-mode semantics**: dropout is identity and
batch norm uses running statistics, regardless of the model's
``training`` flag at compile time.

Cache metrics (``plan_cache_hits_total``, ``plan_cache_misses_total``,
``plan_cache_invalidations_total``, ``plan_cache_evictions_total``,
``plan_compiles_total``, ``plan_cache_size``) flow through
:mod:`repro.obs` when observability is enabled.

Execution is single-threaded by design: steps share scratch buffers, so
one plan must not be invoked concurrently from multiple threads.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .. import obs
from ..errors import PlanError
from ..nn.dropout import Dropout
from ..nn.embedding import Embedding
from ..nn.norm import BatchNorm2d
from ..nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..tensor import Tensor, no_grad
from .context import slice_profile
from .families import Family, Op, family_of
from .profile import SliceProfile, as_profile, validate_rate
from .layers import (
    MultiBatchNorm2d,
    SlicedBatchNorm2d,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
)
from .recurrent import (
    SlicedGRUCell,
    SlicedLSTM,
    SlicedLSTMCell,
    SlicedRNNCell,
)

__all__ = [
    "InferencePlan",
    "FallbackPlan",
    "PlanCache",
    "compile_plan",
    "compile_layer",
    "shared_cache",
    "get_plan",
]


def _f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32)


def _log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # Mirrors repro.tensor.functional.log_softmax exactly.
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return shifted - np.log(exp.sum(axis=axis, keepdims=True))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# ----------------------------------------------------------------------
# Steps: pure-numpy callables over contiguous weight prefixes
# ----------------------------------------------------------------------
class PlanStep:
    """One compiled operation; subclasses are ``ndarray -> ndarray``."""

    kind = "step"
    #: Feature width of the activation the step emits (None: unchanged),
    #: threaded by :func:`compile_plan` into the next step.
    out_width: int | None = None

    def param_bytes(self) -> int:
        """Bytes of weight data resident in this step."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class LinearStep(PlanStep):
    """``y = x @ W.T + b`` over the ``Subnet-r`` prefix of a dense layer.

    ``weight``/``bias`` keep the *unscaled* prefix (so nesting tests can
    compare raw prefixes across rates); the executed operands fold the
    rescale ``scale`` in.
    """

    kind = "linear"

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 scale: float = 1.0, relu: bool = False):
        self.weight = _f32(weight)
        self.bias = None if bias is None else _f32(bias)
        self.scale = float(scale)
        self.relu = bool(relu)
        self.out_width = self.weight.shape[0]
        if self.scale != 1.0:
            self._wt = _f32((self.weight * self.scale).T)
            self._b = None if self.bias is None else _f32(self.bias * self.scale)
        else:
            self._wt = _f32(self.weight.T)
            self._b = self.bias

    def param_bytes(self) -> int:
        return self._wt.nbytes + (0 if self._b is None else self._b.nbytes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = x @ self._wt
        if self._b is not None:
            y += self._b
        if self.relu:
            np.maximum(y, 0.0, out=y)
        return y


class ConvStep(PlanStep):
    """im2col convolution with pre-baked prefix weights and scratch reuse.

    The padded-input, column and output buffers are allocated once per
    input shape and reused; the im2col gather is a strided view copied
    into the column buffer, and the contraction is a single GEMM with an
    ``out=`` destination.
    """

    kind = "conv"

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 stride: int = 1, padding: int = 0):
        self.weight = _f32(weight)  # (out_ch, in_ch, kh, kw) prefix
        self.bias = None if bias is None else _f32(bias)
        out_ch, in_ch, kh, kw = self.weight.shape
        self.out_channels = self.out_width = out_ch
        self.in_channels = in_ch
        self.kernel_size = (kh, kw)
        self.stride = int(stride)
        self.padding = int(padding)
        self.w_mat = _f32(self.weight.reshape(out_ch, in_ch * kh * kw))
        self._bias_col = None if self.bias is None \
            else self.bias.reshape(1, out_ch, 1, 1)
        self._shape: tuple[int, ...] | None = None

    def param_bytes(self) -> int:
        return self.w_mat.nbytes + (0 if self.bias is None else self.bias.nbytes)

    def _prepare(self, shape: tuple[int, ...]) -> None:
        batch, channels, height, width = shape
        if channels != self.in_channels:
            raise PlanError(
                f"conv step compiled for {self.in_channels} input channels, "
                f"got {channels}")
        kh, kw = self.kernel_size
        p, s = self.padding, self.stride
        hp, wp = height + 2 * p, width + 2 * p
        h_out = (hp - kh) // s + 1
        w_out = (wp - kw) // s + 1
        if h_out <= 0 or w_out <= 0:
            raise PlanError(f"conv step input {shape} smaller than kernel")
        self._padded = np.zeros((batch, channels, hp, wp), dtype=np.float32)
        self._cols = np.empty((channels * kh * kw, batch * h_out * w_out),
                              dtype=np.float32)
        self._gemm_out = np.empty((self.out_channels, batch * h_out * w_out),
                                  dtype=np.float32)
        self._out = np.empty((batch, self.out_channels, h_out, w_out),
                             dtype=np.float32)
        strides = self._padded.strides
        self._view_shape = (channels, kh, kw, batch, h_out, w_out)
        self._view_strides = (strides[1], strides[2], strides[3],
                              strides[0], strides[2] * s, strides[3] * s)
        self._h_out, self._w_out = h_out, w_out
        self._shape = shape

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self._shape:
            self._prepare(x.shape)
        p = self.padding
        if p:
            self._padded[:, :, p:-p, p:-p] = x
        else:
            self._padded[...] = x
        view = as_strided(self._padded, self._view_shape, self._view_strides)
        self._cols.reshape(self._view_shape)[...] = view
        np.matmul(self.w_mat, self._cols, out=self._gemm_out)
        batch = x.shape[0]
        folded = self._gemm_out.reshape(
            self.out_channels, batch, self._h_out, self._w_out)
        self._out[...] = folded.transpose(1, 0, 2, 3)
        if self._bias_col is not None:
            self._out += self._bias_col
        return self._out


class GroupNormStep(PlanStep):
    """Per-group normalization over the active channel prefix."""

    kind = "groupnorm"

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, group_size: int,
                 eps: float, relu: bool = False):
        self.weight = _f32(gamma)  # (active_channels,) prefix
        self.bias = _f32(beta)
        self.channels = self.weight.shape[0]
        self.group_size = int(group_size)
        if self.channels % self.group_size:
            raise PlanError(
                f"group-norm step: {self.channels} channels not a multiple "
                f"of group size {self.group_size}")
        self.eps = float(eps)
        self.relu = bool(relu)

    def param_bytes(self) -> int:
        return self.weight.nbytes + self.bias.nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise PlanError(
                f"group-norm step compiled for {self.channels} channels, "
                f"got {x.shape[1]}")
        batch = x.shape[0]
        spatial = x.shape[2:]
        flat = int(np.prod(spatial, dtype=int)) if spatial else 1
        groups = self.channels // self.group_size
        grouped = x.reshape(batch, groups, self.group_size * flat)
        mean = grouped.mean(axis=2, keepdims=True)
        centered = grouped - mean
        var = np.einsum("bgk,bgk->bg", centered, centered) \
            / (self.group_size * flat)
        centered *= ((var + self.eps) ** -0.5)[:, :, None]
        normed = centered.reshape((batch, self.channels) + spatial)
        shape = (1, self.channels) + (1,) * len(spatial)
        out = normed * self.weight.reshape(shape)
        out += self.bias.reshape(shape)
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class BatchNormStep(PlanStep):
    """Eval-mode batch norm folded to one scale and one shift per channel."""

    kind = "batchnorm"

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 eps: float, relu: bool = False):
        gamma, beta = _f32(gamma), _f32(beta)
        mean, var = _f32(running_mean), _f32(running_var)
        inv = (var + np.float32(eps)) ** -0.5
        self.channels = gamma.shape[0]
        self.scale = _f32(gamma * inv)
        self.shift = _f32(beta - mean * inv * gamma)
        self.relu = bool(relu)

    def param_bytes(self) -> int:
        return self.scale.nbytes + self.shift.nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise PlanError(
                f"batch-norm step compiled for {self.channels} channels, "
                f"got {x.shape[1]}")
        shape = (1, self.channels) + (1,) * (x.ndim - 2)
        out = x * self.scale.reshape(shape)
        out += self.shift.reshape(shape)
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class ReluStep(PlanStep):
    kind = "relu"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class IdentityStep(PlanStep):
    """Eval-mode dropout (and any other inference no-op)."""

    kind = "identity"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x


class MaxPoolStep(PlanStep):
    kind = "maxpool"

    def __init__(self, kernel_size: int):
        self.kernel_size = int(kernel_size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise PlanError(
                f"max-pool step: spatial dims {height}x{width} "
                f"not divisible by {k}")
        return x.reshape(batch, channels, height // k, k, width // k, k) \
                .max(axis=(3, 5))


class AvgPoolStep(PlanStep):
    kind = "avgpool"

    def __init__(self, kernel_size: int):
        self.kernel_size = int(kernel_size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise PlanError(
                f"avg-pool step: spatial dims {height}x{width} "
                f"not divisible by {k}")
        return x.reshape(batch, channels, height // k, k, width // k, k) \
                .mean(axis=(3, 5))


class GlobalAvgPoolStep(PlanStep):
    kind = "global_avg_pool"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3))


class EmbeddingStep(PlanStep):
    kind = "embedding"

    def __init__(self, table: np.ndarray):
        self.weight = _f32(table)
        self.out_width = self.weight.shape[1]

    def param_bytes(self) -> int:
        return self.weight.nbytes

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            raise PlanError("embedding step expects integer token ids")
        return self.weight[idx]


class LogSoftmaxStep(PlanStep):
    kind = "log_softmax"

    def __init__(self, axis: int = -1):
        self.axis = axis

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _log_softmax(x, axis=self.axis)


# -- transformer steps --------------------------------------------------
# These steps deliberately keep weights in the *live orientation*
# ((out, in), applied as ``x @ W.T``) instead of pre-transposing like
# LinearStep: the transformer acceptance bar is bitwise identity between
# the live sliced forward, the compiled plan and the materialized subnet,
# so every GEMM must present BLAS with the same shapes and orientation
# the live path does.
class DenseStep(PlanStep):
    """``y = x @ W.T + b`` over a prefix, replaying the live op order."""

    kind = "dense"

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 relu: bool = False):
        self.weight = _f32(weight)  # (out, in) prefix, live orientation
        self.bias = _f32(bias)
        self.relu = bool(relu)
        self.out_width = self.weight.shape[0]

    def param_bytes(self) -> int:
        return self.weight.nbytes + self.bias.nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight.T
        y = y + self.bias
        if self.relu:
            # Tensor.relu computes x * (x > 0); mirror it exactly.
            y = y * (y > 0)
        return y


class LayerNormStep(PlanStep):
    """Layer norm over the arriving width, via the shared numpy eval."""

    kind = "layernorm"

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, eps: float):
        from ..nn.norm import layer_norm_eval

        self.weight = _f32(gamma)
        self.bias = _f32(beta)
        self.eps = float(eps)
        self._eval = layer_norm_eval

    def param_bytes(self) -> int:
        return self.weight.nbytes + self.bias.nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._eval(x, self.weight, self.bias, self.eps)


class PositionalStep(PlanStep):
    """Adds the learned positional prefix (seq length from the input)."""

    kind = "positional"

    def __init__(self, table: np.ndarray, batch_first: bool):
        self.weight = _f32(table)  # (max_len, width) prefix
        self.batch_first = bool(batch_first)

    def param_bytes(self) -> int:
        return self.weight.nbytes

    def __call__(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1] if self.batch_first else x.shape[0]
        if seq_len > self.weight.shape[0]:
            raise PlanError(
                f"positional step compiled for max {self.weight.shape[0]} "
                f"positions, got {seq_len}")
        pos = self.weight[:seq_len]
        if not self.batch_first:
            pos = pos.reshape(seq_len, 1, -1)
        return x + pos


class AttentionBlockStep(PlanStep):
    """Pre-norm attention half-block: ``x + attn(ln(x))``, LN folded in.

    The LayerNorm is evaluated inline (no separate step, no autograd
    graph) and the packed head-major QKV prefix runs as **one GEMM** for
    all active heads.  The causal mask comes from the process-wide
    :func:`repro.nn.attention.causal_mask` cache, shared with the live
    layer and resumable plans.  ``qkv_weight``/``proj_weight`` hold the
    raw prefixes, so nesting tests can compare them across profiles.
    """

    kind = "attention"

    def __init__(self, ln_gamma: np.ndarray, ln_beta: np.ndarray, eps: float,
                 qkv_weight: np.ndarray, qkv_bias: np.ndarray,
                 proj_weight: np.ndarray, proj_bias: np.ndarray,
                 head_dim: int, causal: bool, batch_first: bool):
        from ..nn.attention import attention_eval, causal_mask
        from ..nn.norm import layer_norm_eval

        self.ln_gamma = _f32(ln_gamma)
        self.ln_beta = _f32(ln_beta)
        self.eps = float(eps)
        self.qkv_weight = _f32(qkv_weight)
        self.qkv_bias = _f32(qkv_bias)
        self.proj_weight = _f32(proj_weight)
        self.proj_bias = _f32(proj_bias)
        self.head_dim = int(head_dim)
        self.heads = self.qkv_weight.shape[0] // (3 * self.head_dim)
        self.causal = bool(causal)
        self.batch_first = bool(batch_first)
        self._attention = attention_eval
        self._mask = causal_mask
        self._ln = layer_norm_eval

    def param_bytes(self) -> int:
        return (self.ln_gamma.nbytes + self.ln_beta.nbytes
                + self.qkv_weight.nbytes + self.qkv_bias.nbytes
                + self.proj_weight.nbytes + self.proj_bias.nbytes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        hx = self._ln(x, self.ln_gamma, self.ln_beta, self.eps)
        seq_len = x.shape[1] if self.batch_first else x.shape[0]
        mask = self._mask(seq_len) if self.causal else None
        return x + self._attention(
            hx, self.qkv_weight, self.qkv_bias, self.proj_weight,
            self.proj_bias, self.head_dim, mask=mask,
            batch_first=self.batch_first,
        )


class FFNBlockStep(PlanStep):
    """Pre-norm FFN half-block: ``x + fc2(relu(fc1(ln(x))))``."""

    kind = "ffn"

    def __init__(self, ln_gamma: np.ndarray, ln_beta: np.ndarray, eps: float,
                 fc1_weight: np.ndarray, fc1_bias: np.ndarray,
                 fc2_weight: np.ndarray, fc2_bias: np.ndarray):
        from ..nn.norm import layer_norm_eval

        self.ln_gamma = _f32(ln_gamma)
        self.ln_beta = _f32(ln_beta)
        self.eps = float(eps)
        self.fc1_weight = _f32(fc1_weight)
        self.fc1_bias = _f32(fc1_bias)
        self.fc2_weight = _f32(fc2_weight)
        self.fc2_bias = _f32(fc2_bias)
        self._ln = layer_norm_eval

    def param_bytes(self) -> int:
        return (self.ln_gamma.nbytes + self.ln_beta.nbytes
                + self.fc1_weight.nbytes + self.fc1_bias.nbytes
                + self.fc2_weight.nbytes + self.fc2_bias.nbytes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        hx = self._ln(x, self.ln_gamma, self.ln_beta, self.eps)
        flat = hx.reshape(-1, shape[-1])
        hidden = flat @ self.fc1_weight.T
        hidden = hidden + self.fc1_bias
        hidden = hidden * (hidden > 0)  # Tensor.relu's exact arithmetic
        out = hidden @ self.fc2_weight.T
        out = out + self.fc2_bias
        return x + out.reshape(shape)


class MeanPoolStep(PlanStep):
    """Mean over the token axis, replaying ``Tensor.mean``'s sum*scale."""

    kind = "meanpool"

    def __init__(self, axis: int = 1):
        self.axis = int(axis)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        count = x.shape[self.axis]
        return x.sum(axis=self.axis) * (1.0 / count)


# -- recurrent steps ----------------------------------------------------
class RNNCellStep(PlanStep):
    """Sliced vanilla RNN cell with the rescale folded into the weights."""

    kind = "rnn_cell"

    def __init__(self, cell: SlicedRNNCell, rate: float, in_width: int):
        hidden = cell.partition.width_for(rate)
        self.hidden = hidden
        self.in_width = in_width
        self.scale = _recurrent_scale(cell, in_width, hidden)
        s = np.float32(self.scale)
        self.weight_ih = _f32(cell.weight_ih.data[:hidden, :in_width])
        self.weight_hh = _f32(cell.weight_hh.data[:hidden, :hidden])
        self.bias = _f32(cell.bias.data[:hidden])
        self._wih_t = _f32((self.weight_ih * s).T)
        self._whh_t = _f32((self.weight_hh * s).T)
        self._b = _f32(self.bias * s)

    def param_bytes(self) -> int:
        return self._wih_t.nbytes + self._whh_t.nbytes + self._b.nbytes

    def __call__(self, x: np.ndarray, h: np.ndarray | None = None
                 ) -> np.ndarray:
        if h is None:
            h = np.zeros((x.shape[0], self.hidden), dtype=np.float32)
        return np.tanh(x @ self._wih_t + h @ self._whh_t + self._b)


class LSTMCellStep(PlanStep):
    """Sliced LSTM cell with the four gates packed into one GEMM each.

    The sliced reference computes one ``(B, h)`` matmul per gate per
    operand; the plan concatenates the per-gate prefixes (i, f, g, o —
    the layout :func:`~repro.slicing.deploy.materialize_subnet` also
    uses) so each timestep is two ``(B, 4h)`` matmuls.
    """

    kind = "lstm_cell"
    _GATES = ("i", "f", "g", "o")

    def __init__(self, cell: SlicedLSTMCell, rate: float, in_width: int):
        hidden = cell.partition.width_for(rate)
        self.hidden = hidden
        self.in_width = in_width
        self.scale = _recurrent_scale(cell, in_width, hidden)
        s = np.float32(self.scale)
        w_ih = np.concatenate([
            getattr(cell, f"w_ih_{g}").data[:hidden, :in_width]
            for g in self._GATES])
        w_hh = np.concatenate([
            getattr(cell, f"w_hh_{g}").data[:hidden, :hidden]
            for g in self._GATES])
        bias = np.concatenate([
            getattr(cell, f"bias_{g}").data[:hidden] for g in self._GATES])
        self.weight_ih = _f32(w_ih)   # (4h, in_width), unscaled
        self.weight_hh = _f32(w_hh)   # (4h, hidden), unscaled
        self.bias = _f32(bias)
        self._wih_t = _f32((self.weight_ih * s).T)
        self._whh_t = _f32((self.weight_hh * s).T)
        self._b = _f32(self.bias * s)

    def param_bytes(self) -> int:
        return self._wih_t.nbytes + self._whh_t.nbytes + self._b.nbytes

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        n = self.hidden
        gates = x @ self._wih_t + h @ self._whh_t + self._b
        i = _sigmoid(gates[:, :n])
        f = _sigmoid(gates[:, n:2 * n])
        g = np.tanh(gates[:, 2 * n:3 * n])
        o = _sigmoid(gates[:, 3 * n:])
        c_next = f * c + i * g
        h_next = o * np.tanh(c_next)
        return h_next, c_next

    def __call__(self, x: np.ndarray,
                 state: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
        if state is None:
            h = np.zeros((x.shape[0], self.hidden), dtype=np.float32)
            c = np.zeros_like(h)
        else:
            h, c = state
        return self.step(x, h, c)


class GRUCellStep(PlanStep):
    """Sliced GRU cell with r/z gates packed into one GEMM.

    Mirrors the reference exactly: the rescale applies to the r and z
    pre-activations only — the candidate is recomputed unscaled from the
    reset-gated hidden state.
    """

    kind = "gru_cell"

    def __init__(self, cell: SlicedGRUCell, rate: float, in_width: int):
        hidden = cell.partition.width_for(rate)
        self.hidden = hidden
        self.in_width = in_width
        self.scale = _recurrent_scale(cell, in_width, hidden)
        s = np.float32(self.scale)
        self.weight_ih = _f32(np.concatenate([
            cell.w_ih_r.data[:hidden, :in_width],
            cell.w_ih_z.data[:hidden, :in_width],
            cell.w_ih_n.data[:hidden, :in_width]]))
        self.weight_hh = _f32(np.concatenate([
            cell.w_hh_r.data[:hidden, :hidden],
            cell.w_hh_z.data[:hidden, :hidden]]))
        self.bias = _f32(np.concatenate([
            cell.bias_r.data[:hidden], cell.bias_z.data[:hidden]]))
        scaled_ih = self.weight_ih.copy()
        scaled_ih[:2 * hidden] *= s
        self._wih_t = _f32(scaled_ih.T)          # (in_w, 3h): [s*r, s*z, n]
        self._whh_rz_t = _f32((self.weight_hh * s).T)  # (h, 2h)
        self._b_rz = _f32(self.bias * s)
        self._whh_n_t = _f32(cell.w_hh_n.data[:hidden, :hidden].T)
        self._b_n = _f32(cell.bias_n.data[:hidden])

    def param_bytes(self) -> int:
        return (self._wih_t.nbytes + self._whh_rz_t.nbytes
                + self._b_rz.nbytes + self._whh_n_t.nbytes + self._b_n.nbytes)

    def __call__(self, x: np.ndarray, h: np.ndarray | None = None
                 ) -> np.ndarray:
        n = self.hidden
        if h is None:
            h = np.zeros((x.shape[0], n), dtype=np.float32)
        xw = x @ self._wih_t
        pre_rz = xw[:, :2 * n] + h @ self._whh_rz_t + self._b_rz
        r = _sigmoid(pre_rz[:, :n])
        z = _sigmoid(pre_rz[:, n:])
        cand = np.tanh(xw[:, 2 * n:] + (r * h) @ self._whh_n_t + self._b_n)
        return (1.0 - z) * cand + z * h


class LSTMStackStep(PlanStep):
    """A multi-layer LSTM over a ``(T, B, I)`` sequence from zero states."""

    kind = "lstm"

    def __init__(self, cells: list[LSTMCellStep]):
        self.cells = list(cells)
        self.out_width = self.cells[-1].hidden

    def param_bytes(self) -> int:
        return sum(cell.param_bytes() for cell in self.cells)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        steps, batch = x.shape[0], x.shape[1]
        layer_input = x
        for cell in self.cells:
            h = np.zeros((batch, cell.hidden), dtype=np.float32)
            c = np.zeros_like(h)
            outputs = np.empty((steps, batch, cell.hidden), dtype=np.float32)
            for t in range(steps):
                h, c = cell.step(layer_input[t], h, c)
                outputs[t] = h
            layer_input = outputs
        return layer_input


def _recurrent_scale(cell, in_width: int, hidden: int) -> float:
    if not cell.rescale:
        return 1.0
    return (cell.input_size / in_width + cell.hidden_size / hidden) / 2.0


# ----------------------------------------------------------------------
# Layer compilation
# ----------------------------------------------------------------------
def _linear_in_width(layer: SlicedLinear, rate: float) -> int:
    if not layer.slice_input:
        return layer.in_features
    return layer.in_partition.width_for(rate)


def _linear_out_width(layer: SlicedLinear, rate: float) -> int:
    if not layer.slice_output:
        return layer.out_features
    return layer.out_partition.width_for(rate)


def _linear_scale(layer: SlicedLinear, in_width: int) -> float:
    if layer.rescale and layer.slice_input and in_width != layer.in_features:
        return layer.in_features / in_width
    return 1.0


def compile_layer(layer, rate, in_width: int | None = None,
                  relu: bool = False) -> PlanStep:
    """Compile one sliced layer into a :class:`PlanStep` at ``rate``.

    ``rate`` may be a scalar or a :class:`SliceProfile`; a profile is
    resolved to this layer's own rate via its ``slice_point`` name
    (containers like :class:`SlicedLSTM` resolve per child cell).
    ``in_width`` overrides the input width the step is specialized for
    (:func:`compile_plan` threads the actual upstream activation width;
    standalone compilation derives it from the layer's own partition).
    ``relu`` fuses a trailing ReLU into steps that support it.
    """
    profile = as_profile(rate)
    if isinstance(layer, SlicedLSTM):
        cell_steps: list[PlanStep] = []
        width = in_width
        for cell in layer.cells:
            cell_steps.append(_compile_cell(
                cell, profile.rate_for(cell.slice_point), width))
            width = cell_steps[-1].hidden
        return LSTMStackStep(cell_steps)
    rate = validate_rate(profile.rate_for(getattr(layer, "slice_point", None)))
    if isinstance(layer, SlicedLinear):
        in_w = in_width if in_width is not None else _linear_in_width(layer, rate)
        out_w = _linear_out_width(layer, rate)
        bias = None if layer.bias is None else layer.bias.data[:out_w]
        return LinearStep(layer.weight.data[:out_w, :in_w], bias,
                          scale=_linear_scale(layer, in_w), relu=relu)
    if isinstance(layer, SlicedConv2d):
        in_w = in_width if in_width is not None else (
            layer.in_partition.width_for(rate) if layer.slice_input
            else layer.in_channels)
        out_w = layer.active_out_channels(rate)
        bias = None if layer.bias is None else layer.bias.data[:out_w]
        step = ConvStep(layer.weight.data[:out_w, :in_w], bias,
                        stride=layer.stride, padding=layer.padding)
        if relu:
            raise PlanError("ConvStep does not fuse ReLU")
        return step
    if isinstance(layer, SlicedGroupNorm):
        if in_width is None:
            groups = max(1, min(round(rate * layer.num_groups),
                                layer.num_groups))
            in_width = groups * layer.group_size
        if in_width % layer.group_size:
            raise PlanError(
                f"active width {in_width} is not a multiple of the "
                f"group size {layer.group_size}")
        return GroupNormStep(layer.weight.data[:in_width],
                             layer.bias.data[:in_width],
                             layer.group_size, layer.eps, relu=relu)
    if isinstance(layer, SlicedBatchNorm2d):
        channels = in_width if in_width is not None else layer.num_features
        return BatchNormStep(layer.weight.data[:channels],
                             layer.bias.data[:channels],
                             layer.running_mean[:channels],
                             layer.running_var[:channels],
                             layer.eps, relu=relu)
    if isinstance(layer, MultiBatchNorm2d):
        best = min(layer._rate_keys, key=lambda r: abs(r - rate))
        if abs(best - rate) > 1e-6:
            raise PlanError(
                f"MultiBatchNorm2d has no BN for rate {rate}; "
                f"configured rates: {layer._rate_keys}")
        bn: BatchNorm2d = getattr(layer, f"bn_{layer._key(best)}")
        if in_width is not None and in_width != bn.num_features:
            raise PlanError(
                f"rate {rate} BN expects {bn.num_features} channels, "
                f"got {in_width}")
        return compile_layer(bn, rate, in_width=bn.num_features, relu=relu)
    if isinstance(layer, BatchNorm2d):
        return BatchNormStep(layer.weight.data, layer.bias.data,
                             layer.running_mean, layer.running_var,
                             layer.eps, relu=relu)
    if isinstance(layer, (SlicedLSTMCell, SlicedGRUCell, SlicedRNNCell)):
        return _compile_cell(layer, rate, in_width)
    if isinstance(layer, Embedding):
        return EmbeddingStep(layer.weight.data[:, :layer.active_width(rate)])
    if isinstance(layer, Dropout):
        return IdentityStep()
    if isinstance(layer, MaxPool2d):
        return MaxPoolStep(layer.kernel_size)
    if isinstance(layer, AvgPool2d):
        return AvgPoolStep(layer.kernel_size)
    if isinstance(layer, GlobalAvgPool2d):
        return GlobalAvgPoolStep()
    raise PlanError(f"no plan compiler for layer {type(layer).__name__}")


def _compile_cell(cell, rate: float, in_width: int | None = None) -> PlanStep:
    if in_width is None:
        in_width = cell.in_partition.width_for(rate) if cell.slice_input \
            else cell.input_size
    if isinstance(cell, SlicedLSTMCell):
        return LSTMCellStep(cell, rate, in_width)
    if isinstance(cell, SlicedGRUCell):
        return GRUCellStep(cell, rate, in_width)
    if isinstance(cell, SlicedRNNCell):
        return RNNCellStep(cell, rate, in_width)
    raise PlanError(f"no plan compiler for cell {type(cell).__name__}")


# ----------------------------------------------------------------------
# Model compilation: one step per declared op
# ----------------------------------------------------------------------
def _compile_op(op: Op, profile: SliceProfile, width: int | None
                ) -> PlanStep:
    """The step for one declared op; ``width`` is the arriving feature
    width (None for the model input, which is never sliced)."""
    layer = op.layer
    if op.kind in ("linear", "conv", "pool", "embedding", "lstm"):
        return compile_layer(layer, profile, in_width=width, relu=op.relu)
    if op.kind == "norm":
        return compile_layer(layer, profile.rate_for(op.source.slice_point),
                             in_width=width, relu=op.relu)
    if op.kind == "dense":
        out = _linear_out_width(layer, profile.rate_for(layer.slice_point))
        width = layer.in_features if width is None else width
        return DenseStep(layer.weight.data[:out, :width],
                         layer.bias.data[:out], relu=op.relu)
    if op.kind == "positional":
        return PositionalStep(layer.weight.data[:, :width],
                              batch_first=layer.batch_first)
    if op.kind == "attention":
        return _attention_step(layer, profile, width)
    if op.kind == "ffn":
        return _ffn_step(layer, profile, width)
    if op.kind == "layernorm":
        return LayerNormStep(layer.weight.data[:width],
                             layer.bias.data[:width], layer.eps)
    if op.kind == "mean_pool":
        return MeanPoolStep(axis=1)
    if op.kind == "global_pool":
        return GlobalAvgPoolStep()
    if op.kind == "log_softmax":
        return LogSoftmaxStep()
    raise PlanError(f"no plan step for op kind {op.kind!r}")


def _attention_step(block, profile: SliceProfile, width: int
                    ) -> AttentionBlockStep:
    """The attention half of a pre-norm block at the residual ``width``."""
    attn = block.attn
    heads = attn.active_heads(profile.rate_for(attn.slice_point))
    inner = heads * attn.head_dim
    rows = 3 * inner
    return AttentionBlockStep(
        block.ln1.weight.data[:width], block.ln1.bias.data[:width],
        block.ln1.eps,
        attn.qkv_weight.data[:rows, :width], attn.qkv_bias.data[:rows],
        attn.proj_weight.data[:width, :inner], attn.proj_bias.data[:width],
        attn.head_dim, attn.causal, attn.batch_first,
    )


def _ffn_step(block, profile: SliceProfile, width: int) -> FFNBlockStep:
    """The FFN half of a pre-norm block at the residual ``width``."""
    ffn = block.fc1.out_partition.width_for(
        profile.rate_for(block.fc1.slice_point))
    fc2_out = block.fc2.out_partition.width_for(
        profile.rate_for(block.fc2.slice_point))
    if fc2_out != width:
        raise PlanError(
            f"profile gives fc2 width {fc2_out} but the residual stream is "
            f"{width} wide; fc2 must stay at the default (residual) rate")
    return FFNBlockStep(
        block.ln2.weight.data[:width], block.ln2.bias.data[:width],
        block.ln2.eps,
        block.fc1.weight.data[:ffn, :width], block.fc1.bias.data[:ffn],
        block.fc2.weight.data[:width, :ffn], block.fc2.bias.data[:width],
    )


def _call(step: PlanStep, x: np.ndarray) -> np.ndarray:
    return step(x)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class InferencePlan:
    """The compiled forward pass of one model at one slice profile.

    :attr:`profile` is the full per-layer identity; :attr:`rate` keeps
    the scalar view for uniform profiles (``None`` for genuinely
    non-uniform ones, where no single scalar describes the plan).
    """

    compiled = True
    fallback = False

    def __init__(self, model, rate, steps: list[PlanStep],
                 family: Family | None = None):
        self.model = model
        self.profile = as_profile(rate)
        self.rate = float(self.profile) if self.profile.uniform else None
        self.steps = list(steps)
        self.family = family
        self._sources = [(p, p.version) for p in model.parameters()]
        self._extra = [
            (module, key, value)
            for module in model.modules()
            for key, value in module.extra_state().items()
        ]

    # -- staleness -------------------------------------------------------
    def is_valid(self) -> bool:
        """True while the snapshot still matches the live model."""
        current = self.model.parameters()
        if len(current) != len(self._sources):
            return False
        for param, (source, version) in zip(current, self._sources):
            if param is not source or param.version != version:
                return False
        for module, key, value in self._extra:
            if module.extra_state().get(key) is not value:
                return False
        return True

    # -- execution -------------------------------------------------------
    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Execute the plan on a raw ``ndarray`` batch."""
        x = np.asarray(inputs)
        if x.dtype.kind not in "iu":
            x = np.ascontiguousarray(x, dtype=np.float32)
        return self.family.execute(self.model, self.steps, x, _call)

    def __call__(self, x) -> Tensor:
        """Tensor-compatible entry point (drop-in for ``model(x)``)."""
        arr = x.data if isinstance(x, Tensor) else x
        return Tensor(np.array(self.run(arr)))

    # -- introspection ---------------------------------------------------
    def param_bytes(self) -> int:
        """Bytes of weight data materialized by this plan."""
        return sum(step.param_bytes() for step in self.steps)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({type(self.model).__name__}, "
                f"profile={self.profile.label()}, steps={len(self.steps)})")


class FallbackPlan(InferencePlan):
    """Uncompiled escape hatch: the sliced forward under ``no_grad``.

    Used when the model class has no family declaration.  It reads
    the live weights on every call, so it can never go stale.
    """

    compiled = False
    fallback = True

    def __init__(self, model, rate):
        super().__init__(model, rate, steps=[])

    def is_valid(self) -> bool:
        return True

    def run(self, inputs: np.ndarray) -> np.ndarray:
        x = np.asarray(inputs)
        arg = x if x.dtype.kind in "iu" \
            else Tensor(np.ascontiguousarray(x, dtype=np.float32))
        with no_grad(), slice_profile(self.profile):
            out = self.model(arg)
        return out.data if isinstance(out, Tensor) else np.asarray(out)


def compile_plan(model, rate) -> InferencePlan:
    """Compile ``model`` at ``rate`` (a :class:`FallbackPlan` if unknown).

    ``rate`` may be a scalar rate or a :class:`SliceProfile`.  The steps
    follow the model's family declaration
    (:mod:`~repro.slicing.families`), each specialized for the feature
    width its predecessor emits.
    """
    profile = as_profile(rate)
    family = family_of(model)
    if family is None:
        if obs.enabled():
            obs.count("plan_fallbacks_total", kind=type(model).__name__)
        return FallbackPlan(model, profile)
    steps: list[PlanStep] = []
    width = None
    for op in family.ops(model):
        steps.append(_compile_op(op, profile, width))
        width = steps[-1].out_width or width
    return InferencePlan(model, profile, steps, family)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class PlanCache:
    """LRU cache of compiled plans keyed by ``(model, profile)``.

    The profile key is the canonical fingerprint, so ``0.5``,
    ``UniformProfile(0.5)`` and an all-``0.5`` :class:`LayerProfile` all
    share one entry.  A hit requires the cached plan to still be valid:
    any parameter version bump, parameter-identity change or rebound
    running-stats buffer invalidates the entry and recompiles (counted
    separately from cold misses).  Eviction is least-recently-used.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise PlanError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[tuple, InferencePlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, model, rate) -> InferencePlan:
        """The cached plan for ``(model, rate)``, compiling on miss.

        ``rate`` may be a scalar or a :class:`SliceProfile`; the cache
        key is the canonical profile fingerprint.
        """
        profile = as_profile(rate)
        key = (id(model), profile.fingerprint())
        plan = self._entries.get(key)
        if plan is not None and plan.model is model and plan.is_valid():
            self._entries.move_to_end(key)
            self.hits += 1
            if obs.enabled():
                obs.count("plan_cache_hits_total")
            return plan
        if plan is not None:
            del self._entries[key]
            self.invalidations += 1
            if obs.enabled():
                obs.count("plan_cache_invalidations_total")
        self.misses += 1
        if obs.enabled():
            obs.count("plan_cache_misses_total")
        plan = compile_plan(model, profile)
        if obs.enabled():
            obs.count("plan_compiles_total", kind=type(model).__name__)
        self._entries[key] = plan
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            if obs.enabled():
                obs.count("plan_cache_evictions_total")
        if obs.enabled():
            self._observe_size()
        return plan

    def profile_keys(self) -> int:
        """Number of distinct profile fingerprints currently cached."""
        return len({key[1] for key in self._entries})

    def _observe_size(self) -> None:
        obs.gauge("plan_cache_size", len(self._entries))
        obs.gauge("plan_cache_profile_keys", self.profile_keys())

    def invalidate(self, model=None) -> int:
        """Drop entries for ``model`` (all entries if None); returns count."""
        if model is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            keys = [k for k, plan in self._entries.items()
                    if plan.model is model]
            for key in keys:
                del self._entries[key]
            dropped = len(keys)
        self.invalidations += dropped
        if obs.enabled():
            if dropped:
                obs.count("plan_cache_invalidations_total", amount=dropped)
            self._observe_size()
        return dropped

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = self.misses = self.invalidations = self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (f"PlanCache(size={len(self._entries)}/{self.capacity}, "
                f"hits={self.hits}, misses={self.misses})")


_SHARED_CACHE = PlanCache()


def shared_cache() -> PlanCache:
    """The process-wide default plan cache."""
    return _SHARED_CACHE


def get_plan(model, rate, cache: PlanCache | None = None
             ) -> InferencePlan:
    """Convenience: fetch/compile a plan through ``cache`` (shared default)."""
    return (cache if cache is not None else _SHARED_CACHE).get(model, rate)
