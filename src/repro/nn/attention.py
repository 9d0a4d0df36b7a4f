"""Multi-head self-attention with head-group slicing.

The slice axis of attention is the *head group*: slicing drops whole
trailing heads, so every retained head keeps its full ``head_dim`` and the
Eq. 2 prefix-nesting property holds per group ("Slicing Vision Transformer
for Flexible Inference", arXiv:2412.04786, shows per-head nesting is the
granularity attention tolerates — cutting inside a head destroys the
query/key dot-product geometry).

To make "h active heads" a literal parameter prefix, the QKV projection is
*packed head-major*: row block ``[3*d_k*h, 3*d_k*(h+1))`` of ``qkv_weight``
holds head ``h``'s query, key and value rows (in that order).  Activating
the first ``h`` heads is then one prefix GEMM over ``3*d_k*h`` rows — the
same contiguous-prefix story as :class:`~repro.slicing.layers.SlicedLinear`
columns, which is what compiled plans exploit.

The numpy forward is factored into :func:`attention_eval` so the live
autograd layer, compiled plans (:mod:`repro.slicing.plans`) and
materialized subnets (:mod:`repro.slicing.deploy`) replay bitwise-identical
arithmetic.  The causal mask is built once per sequence length and shared
by every caller through :func:`causal_mask`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError
from ..tensor import Tensor
from ..tensor.profile import profiling_active, record_flops
from .init import kaiming_normal, zeros
from .module import Module, Parameter

_MASK_CACHE: dict[int, np.ndarray] = {}

#: Additive mask value for disallowed positions.  Large enough that the
#: masked logits exp to exactly 0.0 in float32 after the max-shift.
_MASK_VALUE = -1e9


def causal_mask(seq_len: int) -> np.ndarray:
    """The ``(T, T)`` additive causal mask, cached per sequence length.

    Entry ``(i, j)`` is ``0`` when position ``i`` may attend to ``j``
    (``j <= i``) and ``-1e9`` otherwise.  The cache is shared by the live
    layer, compiled plans and resumable plans, so repeated decoding at one
    window length never rebuilds (or duplicates) the mask.
    """
    if seq_len <= 0:
        raise ShapeError(f"causal mask needs a positive length, got {seq_len}")
    mask = _MASK_CACHE.get(seq_len)
    if mask is None:
        idx = np.arange(seq_len)
        mask = np.where(idx[None, :] > idx[:, None],
                        np.float32(_MASK_VALUE), np.float32(0.0))
        mask.setflags(write=False)
        _MASK_CACHE[seq_len] = mask
    return mask


def softmax_eval(scores: np.ndarray) -> np.ndarray:
    """Numpy softmax over the last axis.

    Mirrors ``repro.tensor.functional.softmax`` (exp of the shifted
    log-softmax) so attention probabilities match what an autograd
    composition would produce, bit for bit.
    """
    shifted = scores - scores.max(axis=-1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return np.exp(shifted - logsum)


def attention_eval(x: np.ndarray, qkv_w: np.ndarray, qkv_b: np.ndarray,
                   proj_w: np.ndarray, proj_b: np.ndarray, head_dim: int,
                   mask: np.ndarray | None = None, batch_first: bool = True,
                   want_cache: bool = False):
    """Shared numpy forward for packed-QKV multi-head self-attention.

    ``x`` is ``(B, T, d)`` when ``batch_first`` else ``(T, B, d)``;
    ``qkv_w`` is the head-major packed prefix ``(3*h*d_k, d)``; ``proj_w``
    is ``(d_out, h*d_k)``.  Returns the output in the input layout, plus
    the intermediate cache when ``want_cache`` (used by the analytic
    backward in :class:`MultiHeadSelfAttention`).
    """
    if not batch_first:
        x = np.swapaxes(x, 0, 1)
    b, t, d_in = x.shape
    heads = qkv_w.shape[0] // (3 * head_dim)
    x_flat = x.reshape(b * t, d_in)
    qkv = x_flat @ qkv_w.T
    qkv = qkv + qkv_b
    qkv = qkv.reshape(b, t, heads, 3, head_dim)
    # transpose views, not moveaxis: same layout, none of the per-call
    # axis-normalization overhead (this path is latency-critical).
    q = qkv[:, :, :, 0].transpose(0, 2, 1, 3)  # (b, h, t, d_k)
    k = qkv[:, :, :, 1].transpose(0, 2, 1, 3)
    v = qkv[:, :, :, 2].transpose(0, 2, 1, 3)
    scale = 1.0 / math.sqrt(head_dim)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        scores = scores + mask
    attn = softmax_eval(scores)
    ctx = attn @ v  # (b, h, t, d_k)
    ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(b * t, heads * head_dim)
    out = ctx_flat @ proj_w.T
    out = out + proj_b
    out = out.reshape(b, t, proj_w.shape[0])
    if not batch_first:
        out = np.swapaxes(out, 0, 1)
    if profiling_active():
        # Same accounting Tensor.__matmul__ uses (out.size * K); the
        # score/context terms are the quadratic-in-T attention cost.
        record_flops("matmul", b * t * 3 * heads * head_dim * d_in)
        record_flops("matmul", b * heads * t * t * head_dim)
        record_flops("matmul", b * heads * t * head_dim * t)
        record_flops("matmul", b * t * proj_w.shape[0] * heads * head_dim)
    if want_cache:
        cache = {
            "x_flat": x_flat, "q": q, "k": k, "v": v, "attn": attn,
            "ctx_flat": ctx_flat, "shape": (b, t, d_in), "scale": scale,
        }
        return out, cache
    return out


class MultiHeadSelfAttention(Module):
    """Self-attention whose active head count follows the slice rate.

    Parameters
    ----------
    embed_dim:
        Full residual width (input and output feature count).
    num_heads:
        Full head count.  With slicing on, the ambient profile activates
        the first ``h = round(rate * num_heads)`` heads (at least 1).
    head_dim:
        Per-head width; defaults to ``embed_dim // num_heads``.
    causal:
        Apply the shared :func:`causal_mask` (decoder blocks).
    batch_first:
        ``(B, T, d)`` input layout when True, ``(T, B, d)`` when False
        (the layout the text pipeline uses).
    sliceable:
        When False the layer has no slice point and always runs every
        head — this is what :func:`~repro.slicing.deploy.materialize_subnet`
        instantiates, so deployed artifacts cannot react to slice contexts.

    The residual width is *not* controlled by this layer: the QKV columns
    and output rows follow the arriving activation width (like norms), so
    the block preserves whatever width the model's width controller (patch
    embedding / token embedding) produced.
    """

    def __init__(self, embed_dim: int, num_heads: int,
                 head_dim: int | None = None, causal: bool = False,
                 batch_first: bool = True, sliceable: bool = True,
                 num_groups: int = 8,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if embed_dim <= 0 or num_heads <= 0:
            raise ConfigError("attention sizes must be positive")
        if head_dim is None:
            if embed_dim % num_heads != 0:
                raise ConfigError(
                    f"embed_dim={embed_dim} not divisible by "
                    f"num_heads={num_heads}; pass head_dim explicitly"
                )
            head_dim = embed_dim // num_heads
        rng = rng if rng is not None else np.random.default_rng()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.causal = causal
        self.batch_first = batch_first
        self.sliceable = sliceable
        inner = num_heads * head_dim
        self.qkv_weight = Parameter(kaiming_normal(rng, (3 * inner, embed_dim)))
        self.qkv_bias = Parameter(zeros((3 * inner,)))
        self.proj_weight = Parameter(kaiming_normal(rng, (embed_dim, inner)))
        self.proj_bias = Parameter(zeros((embed_dim,)))
        if sliceable:
            from ..slicing.partition import GroupPartition
            from ..slicing.profile import auto_slice_point

            # One group per head: the head is the indivisible slice unit.
            self.head_partition = GroupPartition(num_heads, num_heads)
            self.embed_partition = GroupPartition(
                embed_dim, min(num_groups, embed_dim)
            )
            self.slice_point = auto_slice_point(self)
            self.slice_group_size = head_dim
        else:
            self.head_partition = None
            self.embed_partition = None

    def active_heads(self, rate: float | None = None) -> int:
        """Head count active at ``rate`` (ambient rate if omitted)."""
        if not self.sliceable:
            return self.num_heads
        if rate is None:
            from ..slicing.context import resolve_rate

            rate = resolve_rate(self)
        return self.head_partition.groups_for(rate)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise ShapeError(
                f"attention expects a 3-d input, got shape {x.shape}"
            )
        d_in = x.shape[-1]
        if d_in > self.embed_dim or (not self.sliceable
                                     and d_in != self.embed_dim):
            raise ShapeError(
                f"attention built for width {self.embed_dim}, got {d_in}"
            )
        heads = self.active_heads()
        rows = 3 * heads * self.head_dim
        qkv_w = self.qkv_weight[:rows, :d_in]
        qkv_b = self.qkv_bias[:rows]
        proj_w = self.proj_weight[:d_in, :heads * self.head_dim]
        proj_b = self.proj_bias[:d_in]
        seq_len = x.shape[1] if self.batch_first else x.shape[0]
        mask = causal_mask(seq_len) if self.causal else None
        out, cache = attention_eval(
            x.data, qkv_w.data, qkv_b.data, proj_w.data, proj_b.data,
            self.head_dim, mask=mask, batch_first=self.batch_first,
            want_cache=True,
        )
        head_dim = self.head_dim
        batch_first = self.batch_first
        proj_w_data = proj_w.data
        qkv_w_data = qkv_w.data

        def backward(grad):
            b, t, d = cache["shape"]
            if not batch_first:
                grad = np.swapaxes(grad, 0, 1)
            g_flat = grad.reshape(b * t, -1)
            d_proj_b = g_flat.sum(axis=0)
            d_proj_w = g_flat.T @ cache["ctx_flat"]
            d_ctx = g_flat @ proj_w_data
            d_ctx = np.moveaxis(d_ctx.reshape(b, t, heads, head_dim), 2, 1)
            attn, q, k, v = cache["attn"], cache["q"], cache["k"], cache["v"]
            d_attn = d_ctx @ np.swapaxes(v, -1, -2)
            d_v = np.swapaxes(attn, -1, -2) @ d_ctx
            d_scores = attn * (
                d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)
            )
            d_scores = d_scores * cache["scale"]
            d_q = d_scores @ k
            d_k = np.swapaxes(d_scores, -1, -2) @ q
            d_qkv = np.empty((b, t, heads, 3, head_dim), dtype=d_q.dtype)
            d_qkv[:, :, :, 0] = np.moveaxis(d_q, 1, 2)
            d_qkv[:, :, :, 1] = np.moveaxis(d_k, 1, 2)
            d_qkv[:, :, :, 2] = np.moveaxis(d_v, 1, 2)
            d_qkv_flat = d_qkv.reshape(b * t, rows)
            d_qkv_b = d_qkv_flat.sum(axis=0)
            d_qkv_w = d_qkv_flat.T @ cache["x_flat"]
            d_x = (d_qkv_flat @ qkv_w_data).reshape(b, t, d)
            if not batch_first:
                d_x = np.swapaxes(d_x, 0, 1)
            return (d_x, d_qkv_w, d_qkv_b, d_proj_w, d_proj_b)

        return Tensor._make(out, (x, qkv_w, qkv_b, proj_w, proj_b), backward)

    def __repr__(self) -> str:
        return (
            f"MultiHeadSelfAttention(d={self.embed_dim}, "
            f"heads={self.num_heads}x{self.head_dim}, causal={self.causal})"
        )
