"""Sliced Transformer models: a patch encoder and a causal decoder LM.

Both models slice along two independent axes per block:

* **head count** — each :class:`~repro.nn.attention.MultiHeadSelfAttention`
  drops whole trailing heads (one slice group per head, Eq. 2 nesting per
  head group);
* **FFN hidden width** — ``fc1`` slices its output columns exactly like
  every other :class:`~repro.slicing.layers.SlicedLinear`.

The *residual width* is controlled by a single width controller at the
bottom of the stack (the patch embedding for the encoder, the token
embedding for the LM) and everything downstream — LayerNorms, attention
QKV columns / output rows, ``fc2`` — follows the arriving width.  ``fc2``
keeps a sliced output at the profile's default rate so its width agrees
with the controller; profiles that assign ``fc2`` a different rate fail
loudly at the residual add.

``rescale=False`` throughout: pre-norm blocks re-normalize after every
residual join, so the paper's output rescaling is unnecessary — and
leaving it off keeps live forward, compiled plans and
``materialize_subnet`` bitwise-identical (deployment bakes any rescale
into the weights, which would otherwise perturb the last bits).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, PlanError, ShapeError
from ..nn.attention import MultiHeadSelfAttention, softmax_eval
from ..nn.embedding import Embedding, LearnedPositional
from ..nn.module import Module, ModuleList
from ..nn.norm import LayerNorm, layer_norm_eval
from ..slicing.layers import SlicedLinear
from ..slicing.plans import (AttentionBlockStep, EmbeddingStep,
                             PositionalStep, get_plan)
from ..slicing.profile import (LayerProfile, assign_slice_points,
                               named_slice_points)
from ..tensor import Tensor, log_softmax


class TransformerBlock(Module):
    """Pre-norm block: ``x + attn(ln1(x))`` then ``x + ffn(ln2(x))``."""

    def __init__(self, embed_dim: int, num_heads: int, ffn_dim: int,
                 causal: bool, batch_first: bool, num_groups: int,
                 rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(
            embed_dim, num_heads, causal=causal, batch_first=batch_first,
            num_groups=num_groups, rng=rng,
        )
        self.ln2 = LayerNorm(embed_dim)
        self.fc1 = SlicedLinear(
            embed_dim, ffn_dim, slice_input=True, slice_output=True,
            rescale=False, num_groups=num_groups, rng=rng,
        )
        self.fc2 = SlicedLinear(
            ffn_dim, embed_dim, slice_input=True, slice_output=True,
            rescale=False, num_groups=num_groups, rng=rng,
        )

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        shape = x.shape
        # Dense layers see 2-d inputs so the GEMM shapes (and therefore
        # the exact floating-point results) match the compiled plan's.
        flat = self.ln2(x).reshape(-1, shape[-1])
        hidden = self.fc1(flat).relu()
        out = self.fc2(hidden)
        if out.shape[-1] != shape[-1]:
            raise ShapeError(
                f"fc2 produced width {out.shape[-1]} but the residual "
                f"stream is {shape[-1]} wide; profiles must leave fc2 at "
                f"the default (residual) rate"
            )
        return x + out.reshape(shape)


class TransformerEncoder(Module):
    """Small ViT-style encoder over synthetic-image patches.

    Images are cut into non-overlapping ``patch_size``² patches, linearly
    embedded (the width controller), tagged with learned positions, run
    through pre-norm blocks, mean-pooled and classified.  The classifier
    head keeps its output unsliced, as the paper prescribes for output
    layers.
    """

    def __init__(self, image_size: int = 16, patch_size: int = 4,
                 channels: int = 3, num_classes: int = 8,
                 embed_dim: int = 32, num_heads: int = 4, ffn_dim: int = 64,
                 depth: int = 2, num_groups: int = 8, seed: int = 0):
        super().__init__()
        if image_size % patch_size != 0:
            raise ConfigError(
                f"image_size={image_size} not divisible by "
                f"patch_size={patch_size}"
            )
        rng = np.random.default_rng(seed)
        self.image_size = image_size
        self.patch_size = patch_size
        self.channels = channels
        self.num_classes = num_classes
        self.embed_dim = embed_dim
        grid = image_size // patch_size
        self.num_patches = grid * grid
        self.patch_dim = channels * patch_size * patch_size
        self.patch_embed = SlicedLinear(
            self.patch_dim, embed_dim, slice_input=False, slice_output=True,
            rescale=False, num_groups=num_groups, rng=rng,
        )
        self.pos = LearnedPositional(
            self.num_patches, embed_dim, batch_first=True, rng=rng,
        )
        self.blocks = ModuleList([
            TransformerBlock(embed_dim, num_heads, ffn_dim, causal=False,
                             batch_first=True, num_groups=num_groups, rng=rng)
            for _ in range(depth)
        ])
        self.ln_f = LayerNorm(embed_dim)
        self.head = SlicedLinear(
            embed_dim, num_classes, slice_input=True, slice_output=False,
            rescale=False, num_groups=num_groups, rng=rng,
        )
        assign_slice_points(self)

    def patchify(self, images: np.ndarray) -> np.ndarray:
        """``(B, C, H, W)`` images to ``(B, T, patch_dim)`` patch rows."""
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[1] != self.channels:
            raise ShapeError(
                f"expected NCHW images with {self.channels} channels, "
                f"got shape {images.shape}"
            )
        b, c, h, w = images.shape
        p = self.patch_size
        if h % p or w % p:
            raise ShapeError(f"image {h}x{w} not divisible by patch {p}")
        gh, gw = h // p, w // p
        x = images.reshape(b, c, gh, p, gw, p)
        x = x.transpose(0, 2, 4, 1, 3, 5).reshape(b, gh * gw, c * p * p)
        return np.ascontiguousarray(x)

    def forward(self, images) -> Tensor:
        data = images.data if isinstance(images, Tensor) else images
        patches = self.patchify(data)
        x = self.patch_embed(Tensor(patches))
        x = self.pos(x)
        for block in self.blocks:
            x = block(x)
        x = self.ln_f(x)
        pooled = x.mean(axis=1)
        logits = self.head(pooled)
        return log_softmax(logits, axis=-1)


class TransformerLM(Module):
    """Causal decoder LM over synthetic text, sliced from the first layer.

    The token embedding opts into output slicing (the :class:`Embedding`
    width-controller path), so the whole residual stream narrows with the
    profile's default rate.  Inference sessions carry a per-session KV
    cache (:class:`DecoderSession`) whose memory the serving cost model
    budgets per resident session.
    """

    def __init__(self, vocab_size: int, embed_dim: int = 32,
                 num_heads: int = 4, ffn_dim: int = 64, depth: int = 2,
                 max_seq: int = 32, num_groups: int = 8, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.max_seq = max_seq
        self.embedding = Embedding(
            vocab_size, embed_dim, rng=rng, slice_output=True,
            num_groups=num_groups,
        )
        self.pos = LearnedPositional(
            max_seq, embed_dim, batch_first=False, rng=rng,
        )
        self.blocks = ModuleList([
            TransformerBlock(embed_dim, num_heads, ffn_dim, causal=True,
                             batch_first=False, num_groups=num_groups,
                             rng=rng)
            for _ in range(depth)
        ])
        self.ln_f = LayerNorm(embed_dim)
        self.decoder = SlicedLinear(
            embed_dim, vocab_size, slice_input=True, slice_output=False,
            rescale=False, num_groups=num_groups, rng=rng,
        )
        assign_slice_points(self)

    def forward(self, tokens: np.ndarray) -> Tensor:
        """``(T, B)`` token ids to ``(T, B, vocab)`` log-probabilities."""
        steps, batch = tokens.shape
        if steps > self.max_seq:
            raise ShapeError(
                f"sequence length {steps} exceeds max_seq {self.max_seq}"
            )
        x = self.embedding(tokens)
        x = self.pos(x)
        for block in self.blocks:
            x = block(x)
        x = self.ln_f(x)
        flat = x.reshape(steps * batch, x.shape[-1])
        logits = self.decoder(flat)
        return log_softmax(logits, axis=-1).reshape(
            steps, batch, self.vocab_size
        )

    def sequence_nll(self, tokens: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean per-token negative log-likelihood of ``targets``."""
        log_probs = self.forward(tokens)
        steps, batch = targets.shape
        flat = log_probs.reshape(steps * batch, self.vocab_size)
        picked = flat[np.arange(steps * batch), targets.reshape(-1)]
        return -(picked.sum() * (1.0 / (steps * batch)))

    def _session_length(self, max_seq: int | None) -> int:
        """A session's cache length: ``max_seq``, at most the model's."""
        seq = self.max_seq if max_seq is None else int(max_seq)
        if not 0 < seq <= self.max_seq:
            raise ShapeError(
                f"session length {seq} outside 1..{self.max_seq} "
                f"(the positional table's length)")
        return seq

    def kv_cache_bytes(self, profile=1.0, max_seq: int | None = None,
                       dtype_bytes: int = 4) -> int:
        """Per-session KV-cache footprint at ``profile``.

        ``heads x head_dim x max_seq x 2`` entries summed over the
        attention steps of the profile's compiled plan: only the
        *active* heads of each block are cached, so narrower profiles
        admit more resident sessions per node.
        """
        seq = self._session_length(max_seq)
        inner = sum(step.heads * step.head_dim
                    for step in get_plan(self, profile).steps
                    if isinstance(step, AttentionBlockStep))
        return inner * seq * 2 * dtype_bytes

    def new_session(self, profile=1.0,
                    max_seq: int | None = None) -> "DecoderSession":
        """An incremental decoding session with its own KV cache."""
        return DecoderSession(self, profile, max_seq)


class DecoderSession:
    """Per-session incremental decoding state for :class:`TransformerLM`.

    Runs the profile's cached compiled plan (:func:`get_plan`) one token
    at a time, so every session at one profile shares one plan and its
    weights.  The session's own job is the per-head key/value cache and
    the one-token attention over it: each step costs O(T) attention
    instead of the O(T²) full re-forward.  The cache holds only the
    active heads, so :attr:`kv_bytes` matches
    ``TransformerLM.kv_cache_bytes`` for the same profile.

    Plan steps alias the model's parameters, and a cache filled under
    old weights means nothing under new ones: once the plan goes stale
    (:meth:`InferencePlan.is_valid`), :meth:`append` raises
    :class:`PlanError`.
    """

    def __init__(self, model: TransformerLM, profile=1.0,
                 max_seq: int | None = None):
        self.max_seq = model._session_length(max_seq)
        self.plan = get_plan(model, profile)
        self.profile = self.plan.profile
        steps = self.plan.steps
        self._embed = next(s for s in steps if isinstance(s, EmbeddingStep))
        self._pos = next(s for s in steps
                         if isinstance(s, PositionalStep)).weight
        self._steps = [s for s in steps
                       if not isinstance(s, (EmbeddingStep, PositionalStep))]
        # One (keys, values) cache per attention step, None elsewhere.
        self._caches = [
            np.zeros((2, s.heads, self.max_seq, s.head_dim), np.float32)
            if isinstance(s, AttentionBlockStep) else None
            for s in self._steps
        ]
        self.length = 0

    @property
    def kv_bytes(self) -> int:
        """Bytes held by this session's key/value cache."""
        return sum(cache.nbytes for cache in self._caches
                   if cache is not None)

    def append(self, token: int) -> np.ndarray:
        """Feed one token; returns ``(vocab,)`` next-token log-probs."""
        t = self.length
        if t >= self.max_seq:
            raise ShapeError(
                f"session is full ({self.max_seq} tokens); start a new one"
            )
        if not self.plan.is_valid():
            raise PlanError(
                "model weights changed since the session started; its KV "
                "cache is stale, start a new session")
        x = self._embed(np.asarray(token)) + self._pos[t]
        for step, cache in zip(self._steps, self._caches):
            x = step(x) if cache is None else _attend(step, cache, x, t)
        self.length = t + 1
        return x


def _attend(step: AttentionBlockStep, cache: np.ndarray, x: np.ndarray,
            t: int) -> np.ndarray:
    """``x + attn(ln(x))`` for the token at position ``t``, caching its
    keys and values and attending over positions ``0..t``."""
    hx = layer_norm_eval(x, step.ln_gamma, step.ln_beta, step.eps)
    qkv = (step.qkv_weight @ hx + step.qkv_bias).reshape(
        step.heads, 3, step.head_dim)
    cache[0, :, t] = qkv[:, 1]
    cache[1, :, t] = qkv[:, 2]
    scale = 1.0 / np.sqrt(step.head_dim)
    scores = np.einsum("hd,htd->ht", qkv[:, 0], cache[0, :, :t + 1]) * scale
    ctx = np.einsum("ht,htd->hd", softmax_eval(scores), cache[1, :, :t + 1])
    return x + (step.proj_weight @ ctx.reshape(-1) + step.proj_bias)


def transformer_search_points(model) -> list[str]:
    """The slice points budget search may vary on a transformer.

    Attention head counts and ``fc1`` hidden widths are free axes; the
    width controller and ``fc2`` must stay at the profile default so the
    residual stream keeps one consistent width.
    """
    return [name for name, module in named_slice_points(model)
            if isinstance(module, MultiHeadSelfAttention)
            or (isinstance(module, SlicedLinear) and name.endswith("fc1"))]


def head_ffn_profile(model, head_rate: float, ffn_rate: float,
                     default: float = 1.0) -> LayerProfile:
    """Algorithm 1 profile over the head-count x FFN-width grid.

    Assigns ``head_rate`` to every attention slice point and ``ffn_rate``
    to every ``fc1``, leaving the residual width at ``default`` — the
    2-axis family the multi-rate trainer samples from.
    """
    rates = {name: ffn_rate if name.endswith("fc1") else head_rate
             for name in transformer_search_points(model)}
    return LayerProfile(rates, default=default)
