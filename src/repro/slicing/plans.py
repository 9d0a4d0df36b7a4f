"""Compiled per-rate inference plans: pay the slicing cost once per rate.

Every sliced forward pass re-derives the same computation: it slices
weight prefixes out of the full tensors, re-applies the
``full_in / active_in`` rescale, and builds an autograd graph that
inference never uses.  A plan bakes all of that ahead of time for one
``(model, rate)`` pair:

* **contiguous weight prefixes** — each step holds exactly the
  ``Subnet-r`` prefix of its layer's parameters as contiguous arrays
  (the rescale factor folded in), so the hot loop is plain BLAS over
  dense operands;
* **no autograd** — steps are pure-numpy callables on ``ndarray``s, no
  ``Tensor`` graph is ever built;
* **the live kernels** — steps call the live layers' numpy forwards
  (``conv2d_eval``, ``group_norm_eval``, ``layer_norm_eval``,
  ``attention_eval``, ``log_softmax_eval``); no step keeps
  per-input-shape state.

Plans are *not* copies: a prefix that is already a contiguous float32
array (a bias prefix, a block of leading rows, a whole weight) is a view
of the live parameter, so steps may alias parameters and see later
in-place writes.  The version check is the guard instead — each
:class:`~repro.nn.module.Parameter` carries a version counter bumped on
every rebinding write (``param.data = ...``, ``param.data -= ...``), and
a plan records the ``(parameter, version)`` pairs it was compiled from.
:meth:`InferencePlan.is_valid` re-walks the model and fails on any
version bump, identity change (e.g. ``upgrade_model`` swapped layers) or
rebound running-statistics buffer; :class:`PlanCache` recompiles, and a
plan held outside the cache is run only while it is valid.  Every such
write also moves the process-wide
:func:`~repro.nn.module.mutation_epoch`, and the walk runs only after
the epoch moved, so a check on an unchanged process is one integer
compare.  Aliasing is deliberate: process workers compile over a shared
parameter arena.

Steps follow the model's declaration in :mod:`repro.slicing.families`;
a residual op compiles to one :class:`ResidualStep` that holds the steps
of its branches.  Every bundled model and every ``Sequential`` of sliced
layers is declared; a model without a declaration gets
:class:`~repro.errors.PlanError` from :func:`compile_plan`, and so from
deployment and parameter counts, which read the plan.  Plans always
execute **eval-mode semantics**: dropout is identity and batch norm uses
running statistics, regardless of the model's ``training`` flag at
compile time.

Cache metrics (``plan_cache_hits_total``, ``plan_cache_misses_total``,
``plan_cache_invalidations_total``, ``plan_cache_evictions_total``,
``plan_compiles_total``, ``plan_cache_size``) flow through
:mod:`repro.obs` when observability is enabled.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import obs
from ..errors import PlanError, ShapeError
from ..nn.attention import MultiHeadSelfAttention, attention_eval, causal_mask
from ..nn.dropout import Dropout
from ..nn.embedding import Embedding, LearnedPositional
from ..nn.module import mutation_epoch
from ..nn.norm import BatchNorm2d, LayerNorm, layer_norm_eval
from ..nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..tensor import Tensor
from ..tensor.fused import group_norm_eval, log_softmax_eval
from ..tensor.ops import conv2d_eval, window_max
from .families import Family, Op, family_of
from .profile import SliceProfile, as_profile, snap_rate, validate_rate
from .layers import (
    MultiBatchNorm2d,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
)
from .recurrent import (
    SlicedGRUCell,
    SlicedLSTMCell,
    SlicedRNNCell,
)

__all__ = [
    "InferencePlan",
    "PlanCache",
    "compile_plan",
    "compile_layer",
    "shared_cache",
    "get_plan",
]


def _f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32)


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
    """Convolution over the ``Subnet-r`` filter prefix.

    Runs :func:`~repro.tensor.ops.conv2d_eval`, the live ``conv2d``
    forward, on the prefix filters flattened to ``w_mat``, so the step
    is bitwise the live layer.
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
        self.w_mat = self.weight.reshape(out_ch, in_ch * kh * kw)

    def param_bytes(self) -> int:
        return self.w_mat.nbytes + (0 if self.bias is None else self.bias.nbytes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_channels:
            raise PlanError(
                f"conv step compiled for {self.in_channels} input channels, "
                f"got {x.shape[1]}")
        return conv2d_eval(x, self.w_mat, self.bias, self.kernel_size,
                           (self.stride,) * 2, (self.padding,) * 2)[0]


class GroupNormStep(PlanStep):
    """Per-group normalization over the active channel prefix.

    Runs :func:`~repro.tensor.fused.group_norm_eval`, the forward of the
    live kernel :func:`~repro.tensor.group_norm`; the fused ReLU replays
    ``Tensor.relu`` (``x * (x > 0)``).
    """

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
        out = group_norm_eval(x, self.weight, self.bias,
                              self.channels // self.group_size, self.eps)[0]
        if self.relu:
            out *= out > 0
        return out


class BatchNormStep(PlanStep):
    """Eval-mode batch norm folded to one scale and one shift per channel."""

    kind = "batchnorm"

    def __init__(self, gamma: np.ndarray, beta: np.ndarray,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 eps: float, relu: bool = False):
        # The unfolded prefixes stay readable for deployment.
        self.weight, self.bias = _f32(gamma), _f32(beta)
        self.running_mean = _f32(running_mean)
        self.running_var = _f32(running_var)
        self.eps = float(eps)
        inv = (self.running_var + np.float32(eps)) ** -0.5
        self.channels = self.weight.shape[0]
        self.scale = _f32(self.weight * inv)
        self.shift = _f32(self.bias - self.running_mean * inv * self.weight)
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
        return window_max(
            x.reshape(batch, channels, height // k, k, width // k, k))


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
        # Tensor.mean's arithmetic (the live global_avg_pool2d): the sum
        # times the reciprocal count, not numpy's sum / count.
        return x.sum(axis=(2, 3)) * (1.0 / (x.shape[2] * x.shape[3]))


class EmbeddingStep(PlanStep):
    kind = "embedding"

    def __init__(self, table: np.ndarray):
        self.weight = _f32(table)
        self.out_width = self.weight.shape[1]

    def param_bytes(self) -> int:
        return self.weight.nbytes

    def __call__(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        # The live op's checks; a negative id would silently wrap.
        if idx.dtype.kind not in "iu":
            raise ShapeError("embedding indices must be integers")
        if idx.size and (idx.min() < 0 or idx.max() >= len(self.weight)):
            raise ShapeError("embedding index out of range")
        return self.weight[idx]


class LogSoftmaxStep(PlanStep):
    kind = "log_softmax"

    def __init__(self, axis: int = -1):
        self.axis = axis

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return log_softmax_eval(x, self.axis)[0]


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
    #: Transformer dense layers never rescale (``rescale=False``).
    scale = 1.0

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
            # The live model's check and message.
            raise ShapeError(
                f"sequence length {seq_len} exceeds max_seq "
                f"{self.weight.shape[0]}")
        pos = self.weight[:seq_len]
        if not self.batch_first:
            pos = pos.reshape(seq_len, 1, -1)
        return x + pos


class AttentionStep(PlanStep):
    """Self-attention over the active head prefix at the arriving width.

    The packed head-major QKV prefix runs as **one GEMM** for all active
    heads.  The causal mask comes from the process-wide
    :func:`repro.nn.attention.causal_mask` cache, shared with the live
    layer and resumable plans.  ``qkv_weight``/``proj_weight`` hold the
    raw prefixes, so nesting tests can compare them across profiles.
    """

    kind = "self_attention"

    def __init__(self, qkv_weight: np.ndarray, qkv_bias: np.ndarray,
                 proj_weight: np.ndarray, proj_bias: np.ndarray,
                 head_dim: int, causal: bool, batch_first: bool):
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

    def param_bytes(self) -> int:
        return (self.qkv_weight.nbytes + self.qkv_bias.nbytes
                + self.proj_weight.nbytes + self.proj_bias.nbytes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        seq_len = x.shape[1] if self.batch_first else x.shape[0]
        mask = self._mask(seq_len) if self.causal else None
        return self._attention(
            x, self.qkv_weight, self.qkv_bias, self.proj_weight,
            self.proj_bias, self.head_dim, mask=mask,
            batch_first=self.batch_first,
        )


class AttentionBlockStep(AttentionStep):
    """Pre-norm attention half-block: ``x + attn(ln(x))``, LN folded in.

    The LayerNorm is evaluated inline (no separate step, no autograd
    graph) ahead of the :class:`AttentionStep` arithmetic.
    """

    kind = "attention"

    def __init__(self, ln: LayerNormStep, attn: AttentionStep):
        super().__init__(attn.qkv_weight, attn.qkv_bias, attn.proj_weight,
                         attn.proj_bias, attn.head_dim, attn.causal,
                         attn.batch_first)
        self.ln_gamma = ln.weight
        self.ln_beta = ln.bias
        self.eps = ln.eps
        self._ln = ln._eval

    def param_bytes(self) -> int:
        return (self.ln_gamma.nbytes + self.ln_beta.nbytes
                + super().param_bytes())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x + super().__call__(
            self._ln(x, self.ln_gamma, self.ln_beta, self.eps))


class FFNBlockStep(PlanStep):
    """Pre-norm FFN half-block: ``x + fc2(relu(fc1(ln(x))))``."""

    kind = "ffn"

    def __init__(self, ln: LayerNormStep, fc1: DenseStep, fc2: DenseStep):
        self.ln_gamma = ln.weight
        self.ln_beta = ln.bias
        self.eps = ln.eps
        self.fc1_weight = fc1.weight
        self.fc1_bias = fc1.bias
        self.fc2_weight = fc2.weight
        self.fc2_bias = fc2.bias
        self._ln = ln._eval

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


class ResidualStep(PlanStep):
    """Pre-activation residual block: ``body(pre(x)) + shortcut``.

    ``pre`` (norm + ReLU) feeds the body and a projection ``shortcut``;
    a block without one adds its raw input ``x``.
    """

    kind = "residual"

    def __init__(self, pre: list[PlanStep], body: list[PlanStep],
                 shortcut: PlanStep | None):
        self.pre = list(pre)
        self.body = list(body)
        self.shortcut = shortcut
        self.out_width = self.body[-1].out_width

    def param_bytes(self) -> int:
        skip = [] if self.shortcut is None else [self.shortcut]
        return sum(step.param_bytes() for step in self.pre + self.body + skip)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h = x
        for step in self.pre:
            h = step(h)
        out = h
        for step in self.body:
            out = step(out)
        return out + (x if self.shortcut is None else self.shortcut(h))


# -- recurrent steps ----------------------------------------------------
class RNNCellStep(PlanStep):
    """Sliced vanilla RNN cell with the rescale folded into the weights."""

    kind = "rnn_cell"

    def __init__(self, cell: SlicedRNNCell, rate: float, in_width: int):
        hidden = cell.partition.width_for(rate)
        self.hidden = self.out_width = hidden
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
        self.hidden = self.out_width = hidden
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
    _GATES = ("r", "z", "n")

    def __init__(self, cell: SlicedGRUCell, rate: float, in_width: int):
        hidden = cell.partition.width_for(rate)
        self.hidden = self.out_width = hidden
        self.in_width = in_width
        self.scale = _recurrent_scale(cell, in_width, hidden)
        s = np.float32(self.scale)
        # Unscaled (3h, ...) prefixes, gates packed r, z, n.
        self.weight_ih = _f32(np.concatenate([
            getattr(cell, f"w_ih_{g}").data[:hidden, :in_width]
            for g in self._GATES]))
        self.weight_hh = _f32(np.concatenate([
            getattr(cell, f"w_hh_{g}").data[:hidden, :hidden]
            for g in self._GATES]))
        self.bias = _f32(np.concatenate([
            getattr(cell, f"bias_{g}").data[:hidden] for g in self._GATES]))
        rz = slice(0, 2 * hidden)
        scaled_ih = self.weight_ih.copy()
        scaled_ih[rz] *= s
        self._wih_t = _f32(scaled_ih.T)          # (in_w, 3h): [s*r, s*z, n]
        self._whh_rz_t = _f32((self.weight_hh[rz] * s).T)  # (h, 2h)
        self._b_rz = _f32(self.bias[rz] * s)
        self._whh_n_t = _f32(self.weight_hh[2 * hidden:].T)
        self._b_n = self.bias[2 * hidden:]

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
# Layer compilation: the one width rule of every layer
# ----------------------------------------------------------------------
_CELLS = (SlicedLSTMCell, SlicedGRUCell, SlicedRNNCell)


def _in_width(layer, rate: float) -> int:
    """Input width of an input-sliced layer fed by an activation that was
    sliced at ``rate`` (the full input width if its input is unsliced)."""
    if layer.in_partition is not None:
        return layer.in_partition.width_for(rate)
    if isinstance(layer, SlicedLinear):
        return layer.in_features
    if isinstance(layer, SlicedConv2d):
        return layer.in_channels
    return layer.input_size


def _linear_prefix(layer: SlicedLinear, rate: float, in_width: int | None
                   ) -> tuple[np.ndarray, np.ndarray | None, float]:
    """``(weight, bias, scale)`` of a dense layer at ``rate``: its
    ``Subnet-r`` prefix and the ``full_in / active_in`` rescale."""
    in_w = in_width if in_width is not None else _in_width(layer, rate)
    out_w = layer.out_partition.width_for(rate) if layer.slice_output \
        else layer.out_features
    bias = None if layer.bias is None else layer.bias.data[:out_w]
    scale = layer.in_features / in_w if layer.rescale \
        and layer.slice_input and in_w != layer.in_features else 1.0
    return layer.weight.data[:out_w, :in_w], bias, scale


def compile_layer(layer, rate, in_width: int | None = None,
                  relu: bool = False) -> PlanStep:
    """Compile one sliced layer into a :class:`PlanStep` at ``rate``.

    ``rate`` may be a scalar or a :class:`SliceProfile`; a profile is
    resolved to this layer's own rate via its ``slice_point`` name.
    ``in_width`` is the width of the arriving activation (:func:`compile_plan`
    threads it); without it, input-sliced layers and group norms derive
    it from the rate, and layer norms, positional tables and attention
    take their full width.  ``relu`` fuses a trailing ReLU into steps
    that support it.

    This is the only place a layer's active widths, weight prefixes and
    rescale factor are worked out: compiled plans, resumable plans,
    :func:`~repro.slicing.deploy.materialize_subnet` and the parameter
    counts of :mod:`repro.metrics.flops` all read the step it returns.
    """
    profile = as_profile(rate)
    rate = validate_rate(profile.rate_for(getattr(layer, "slice_point", None)))
    if isinstance(layer, SlicedLinear):
        weight, bias, scale = _linear_prefix(layer, rate, in_width)
        return LinearStep(weight, bias, scale=scale, relu=relu)
    if isinstance(layer, SlicedConv2d):
        if relu:
            raise PlanError("ConvStep does not fuse ReLU")
        in_w = in_width if in_width is not None else _in_width(layer, rate)
        out_w = layer.active_out_channels(rate)
        bias = None if layer.bias is None else layer.bias.data[:out_w]
        return ConvStep(layer.weight.data[:out_w, :in_w], bias,
                        stride=layer.stride, padding=layer.padding)
    if isinstance(layer, SlicedGroupNorm):
        if in_width is None:
            in_width = snap_rate(rate, layer.num_groups) * layer.group_size
        if in_width % layer.group_size:
            raise PlanError(
                f"active width {in_width} is not a multiple of the "
                f"group size {layer.group_size}")
        return GroupNormStep(layer.weight.data[:in_width],
                             layer.bias.data[:in_width],
                             layer.group_size, layer.eps, relu=relu)
    if isinstance(layer, MultiBatchNorm2d):
        width = in_width if in_width is not None \
            else layer.partition.width_for(rate)
        bn = layer.branch(width)
        if bn is None:
            raise PlanError(
                f"MultiBatchNorm2d has no BN for {width} channels; "
                f"configured rates: {layer._rate_keys}")
        return compile_layer(bn, rate, in_width=width, relu=relu)
    if isinstance(layer, BatchNorm2d):
        channels = in_width if in_width is not None else layer.num_features
        return BatchNormStep(layer.weight.data[:channels],
                             layer.bias.data[:channels],
                             layer.running_mean[:channels],
                             layer.running_var[:channels],
                             layer.eps, relu=relu)
    if isinstance(layer, _CELLS):
        return _compile_cell(layer, rate, in_width)
    if isinstance(layer, Embedding):
        return EmbeddingStep(layer.weight.data[:, :layer.active_width(rate)])
    if isinstance(layer, MultiHeadSelfAttention):
        # Whole trailing heads drop; the QKV columns and output rows
        # follow the arriving residual width.
        inner = layer.active_heads(rate) * layer.head_dim
        width = in_width if in_width is not None else (
            layer.embed_partition.width_for(rate) if layer.sliceable
            else layer.embed_dim)
        return AttentionStep(
            layer.qkv_weight.data[:3 * inner, :width],
            layer.qkv_bias.data[:3 * inner],
            layer.proj_weight.data[:width, :inner],
            layer.proj_bias.data[:width],
            layer.head_dim, layer.causal, layer.batch_first)
    if isinstance(layer, LayerNorm):
        width = in_width if in_width is not None else layer.num_features
        return LayerNormStep(layer.weight.data[:width],
                             layer.bias.data[:width], layer.eps)
    if isinstance(layer, LearnedPositional):
        width = in_width if in_width is not None else layer.embedding_dim
        return PositionalStep(layer.weight.data[:, :width],
                              batch_first=layer.batch_first)
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
        in_width = _in_width(cell, rate)
    if isinstance(cell, SlicedLSTMCell):
        return LSTMCellStep(cell, rate, in_width)
    if isinstance(cell, SlicedGRUCell):
        return GRUCellStep(cell, rate, in_width)
    return RNNCellStep(cell, rate, in_width)


# ----------------------------------------------------------------------
# Model compilation: one step per declared op
# ----------------------------------------------------------------------
def _compile_op(op: Op, profile: SliceProfile, width: int | None,
                layers: list) -> PlanStep:
    """The step for one declared op; ``width`` is the arriving feature
    width (None for the model input, which is never sliced).  Each layer
    compiled on the way is appended to ``layers`` with its step."""
    layer = op.layer
    if op.kind == "dense":
        return _dense_step(layer, profile, width, layers, relu=op.relu)
    if op.kind == "attention":
        return AttentionBlockStep(
            _layer_step(layer.ln1, profile, width, layers),
            _layer_step(layer.attn, profile, width, layers))
    if op.kind == "ffn":
        return _ffn_step(layer, profile, width, layers)
    if op.kind == "residual":
        return _residual_step(op, profile, width, layers)
    if op.kind == "lstm":  # a stack of cells, each at its own rate
        cells, _ = _compile_ops([Op("cell", cell) for cell in layer.cells],
                                profile, width, layers)
        return LSTMStackStep(cells)
    if op.kind == "mean_pool":
        return MeanPoolStep(axis=1)
    if op.kind == "global_pool":
        return GlobalAvgPoolStep()
    if op.kind == "log_softmax":
        return LogSoftmaxStep()
    if op.kind in ("linear", "conv", "norm", "pool", "dropout", "cell",
                   "embedding", "positional", "layernorm"):
        return _layer_step(layer, profile, width, layers, relu=op.relu)
    raise PlanError(f"no plan step for op kind {op.kind!r}")


def _compile_ops(ops, profile: SliceProfile, width: int | None,
                 layers: list) -> tuple[list[PlanStep], int | None]:
    """The steps of ``ops`` in order, each fed the width its predecessor
    emits; also returns the width the last one emits.  The one walk that
    threads widths between layers."""
    steps: list[PlanStep] = []
    for op in ops:
        steps.append(_compile_op(op, profile, width, layers))
        width = steps[-1].out_width or width
    return steps, width


def _layer_step(layer, profile: SliceProfile, width: int | None,
                layers: list, relu: bool = False) -> PlanStep:
    """:func:`compile_layer` at the arriving ``width``, recorded in
    ``layers``."""
    step = compile_layer(layer, profile, in_width=width, relu=relu)
    layers.append((layer, step))
    return step


def _residual_step(op: Op, profile: SliceProfile, width: int,
                   layers: list) -> ResidualStep:
    """A pre-activation residual block at the arriving ``width``."""
    pre, inner = _compile_ops(op.pre, profile, width, layers)
    body, body_width = _compile_ops(op.body, profile, inner, layers)
    shortcut = None if op.shortcut is None \
        else _compile_op(op.shortcut, profile, inner, layers)
    skip_width = width if shortcut is None else shortcut.out_width
    if body_width != skip_width:
        raise PlanError(
            f"profile gives the residual body width {body_width} but the "
            f"shortcut width {skip_width}; both branches must emit one "
            f"width")
    return ResidualStep(pre, body, shortcut)


def _dense_step(layer: SlicedLinear, profile: SliceProfile,
                width: int | None, layers: list,
                relu: bool = False) -> DenseStep:
    """A transformer dense layer: the linear prefix rule, never rescaled."""
    weight, bias, _ = _linear_prefix(
        layer, profile.rate_for(layer.slice_point), width)
    step = DenseStep(weight, bias, relu=relu)
    layers.append((layer, step))
    return step


def _ffn_step(block, profile: SliceProfile, width: int,
              layers: list) -> FFNBlockStep:
    """The FFN half of a pre-norm block at the residual ``width``."""
    fc1 = _dense_step(block.fc1, profile, width, layers)
    fc2 = _dense_step(block.fc2, profile, fc1.out_width, layers)
    if fc2.out_width != width:
        raise PlanError(
            f"profile gives fc2 width {fc2.out_width} but the residual "
            f"stream is {width} wide; fc2 must stay at the default "
            f"(residual) rate")
    return FFNBlockStep(_layer_step(block.ln2, profile, width, layers),
                        fc1, fc2)


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
    :attr:`layer_steps` pairs every compiled layer with its step, those
    inside composite steps (an LSTM stack's cells, a transformer
    half-block's layers, residual branches) included; deployment reads
    it.
    """

    def __init__(self, model, rate, steps: list[PlanStep], family: Family,
                 layer_steps: list[tuple[object, PlanStep]]):
        self.model = model
        self.profile = as_profile(rate)
        self.rate = float(self.profile) if self.profile.uniform else None
        self.steps = list(steps)
        self.family = family
        self.layer_steps = layer_steps
        # Read before the snapshot: a write racing it moves the epoch
        # past this value, so the next check walks.
        self._epoch = mutation_epoch()
        self._sources = [(p, p.version) for p in model.parameters()]
        self._extra = [
            (module, key, value)
            for module in model.modules()
            for key, value in module.extra_state().items()
        ]

    # -- staleness -------------------------------------------------------
    def is_valid(self) -> bool:
        """True while the snapshot still matches the live model.

        O(1) while the process-wide
        :func:`~repro.nn.module.mutation_epoch` has not moved since the
        last successful check.  Otherwise it walks every parameter and
        running-statistics buffer, and records the epoch it read before
        the walk only if the walk passes, so a write racing the walk
        makes the next check walk again.
        """
        epoch = mutation_epoch()
        if epoch == self._epoch:
            return True
        current = self.model.parameters()
        if len(current) != len(self._sources):
            return False
        for param, (source, version) in zip(current, self._sources):
            if param is not source or param.version != version:
                return False
        for module, key, value in self._extra:
            if module.extra_state().get(key) is not value:
                return False
        self._epoch = epoch
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


def compile_plan(model, rate) -> InferencePlan:
    """Compile ``model`` at ``rate``.

    ``rate`` may be a scalar rate or a :class:`SliceProfile`.  The steps
    follow the model's family declaration
    (:mod:`~repro.slicing.families`), each specialized for the feature
    width its predecessor emits.  A model without a declaration raises
    :class:`PlanError`.
    """
    family = family_of(model)
    if family is None:
        raise PlanError(
            f"no plan for model {type(model).__name__}: its class has no "
            f"declaration in repro.slicing.families")
    profile = as_profile(rate)
    layer_steps: list[tuple[object, PlanStep]] = []
    steps, _ = _compile_ops(family.ops(model), profile, None, layer_steps)
    return InferencePlan(model, profile, steps, family, layer_steps)


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
