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

from ..errors import ConfigError, ShapeError
from ..nn.attention import MultiHeadSelfAttention, softmax_eval
from ..nn.embedding import Embedding, LearnedPositional
from ..nn.module import Module, ModuleList
from ..nn.norm import LayerNorm, layer_norm_eval
from ..slicing.layers import SlicedLinear
from ..slicing.profile import (LayerProfile, as_profile,
                               assign_slice_points, named_slice_points)
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

    def kv_cache_bytes(self, profile=1.0, max_seq: int | None = None,
                       dtype_bytes: int = 4) -> int:
        """Per-session KV-cache footprint at ``profile``.

        ``layers x heads(profile) x d_k x max_seq x 2`` float32 entries:
        only the *active* heads of each block are cached, so narrower
        profiles admit more resident sessions per node.
        """
        profile = as_profile(profile)
        seq = self.max_seq if max_seq is None else int(max_seq)
        total = 0
        for block in self.blocks:
            attn = block.attn
            heads = attn.active_heads(profile.rate_for(attn.slice_point))
            total += heads * attn.head_dim * seq * 2 * dtype_bytes
        return total

    def new_session(self, profile=1.0,
                    max_seq: int | None = None) -> "DecoderSession":
        """An incremental decoding session with its own KV cache."""
        return DecoderSession(self, profile, max_seq)


class DecoderSession:
    """Per-session incremental decoding state for :class:`TransformerLM`.

    Snapshots the profile's prefix weights once, then decodes one token
    at a time against a preallocated per-layer key/value cache — each
    step costs O(T) attention instead of the O(T²) full re-forward.  The
    cache holds only the active heads, so :attr:`kv_bytes` matches
    ``TransformerLM.kv_cache_bytes`` for the same profile.
    """

    def __init__(self, model: TransformerLM, profile=1.0,
                 max_seq: int | None = None):
        profile = as_profile(profile)
        self.profile = profile
        self.max_seq = model.max_seq if max_seq is None else int(max_seq)
        self.vocab_size = model.vocab_size
        width = model.embedding.active_width(
            profile.rate_for(model.embedding.slice_point))
        self.width = width
        self.embed = model.embedding.weight.data[:, :width].copy()
        self.pos = model.pos.weight.data[:self.max_seq, :width].copy()
        self.layers: list[dict] = []
        for block in model.blocks:
            attn = block.attn
            heads = attn.active_heads(profile.rate_for(attn.slice_point))
            head_dim = attn.head_dim
            rows = 3 * heads * head_dim
            ffn = block.fc1.out_partition.width_for(
                profile.rate_for(block.fc1.slice_point))
            fc2_out = block.fc2.out_partition.width_for(
                profile.rate_for(block.fc2.slice_point))
            if fc2_out != width:
                raise ShapeError(
                    f"profile gives fc2 width {fc2_out} but the residual "
                    f"stream is {width} wide"
                )
            self.layers.append({
                "eps": block.ln1.eps,
                "ln1_g": block.ln1.weight.data[:width].copy(),
                "ln1_b": block.ln1.bias.data[:width].copy(),
                "qkv_w": attn.qkv_weight.data[:rows, :width].copy(),
                "qkv_b": attn.qkv_bias.data[:rows].copy(),
                "proj_w": attn.proj_weight.data[:width,
                                                :heads * head_dim].copy(),
                "proj_b": attn.proj_bias.data[:width].copy(),
                "ln2_g": block.ln2.weight.data[:width].copy(),
                "ln2_b": block.ln2.bias.data[:width].copy(),
                "fc1_w": block.fc1.weight.data[:ffn, :width].copy(),
                "fc1_b": block.fc1.bias.data[:ffn].copy(),
                "fc2_w": block.fc2.weight.data[:width, :ffn].copy(),
                "fc2_b": block.fc2.bias.data[:width].copy(),
                "heads": heads,
                "head_dim": head_dim,
                "k": np.zeros((heads, self.max_seq, head_dim),
                              dtype=np.float32),
                "v": np.zeros((heads, self.max_seq, head_dim),
                              dtype=np.float32),
            })
        self.ln_f_g = model.ln_f.weight.data[:width].copy()
        self.ln_f_b = model.ln_f.bias.data[:width].copy()
        self.ln_f_eps = model.ln_f.eps
        self.dec_w = model.decoder.weight.data[:, :width].copy()
        self.dec_b = model.decoder.bias.data.copy()
        self.length = 0

    @property
    def kv_bytes(self) -> int:
        """Bytes held by this session's key/value cache."""
        return sum(layer["k"].nbytes + layer["v"].nbytes
                   for layer in self.layers)

    def append(self, token: int) -> np.ndarray:
        """Feed one token; returns ``(vocab,)`` next-token log-probs."""
        t = self.length
        if t >= self.max_seq:
            raise ShapeError(
                f"session is full ({self.max_seq} tokens); start a new one"
            )
        x = self.embed[int(token)] + self.pos[t]
        for layer in self.layers:
            heads, head_dim = layer["heads"], layer["head_dim"]
            hx = layer_norm_eval(x, layer["ln1_g"], layer["ln1_b"],
                                 layer["eps"])
            qkv = (layer["qkv_w"] @ hx + layer["qkv_b"]).reshape(
                heads, 3, head_dim)
            layer["k"][:, t] = qkv[:, 1]
            layer["v"][:, t] = qkv[:, 2]
            scale = 1.0 / np.sqrt(head_dim)
            keys = layer["k"][:, :t + 1]
            values = layer["v"][:, :t + 1]
            scores = np.einsum("hd,htd->ht", qkv[:, 0], keys) * scale
            attn = softmax_eval(scores)
            ctx = np.einsum("ht,htd->hd", attn, values)
            x = x + (layer["proj_w"] @ ctx.reshape(-1) + layer["proj_b"])
            hx2 = layer_norm_eval(x, layer["ln2_g"], layer["ln2_b"],
                                  layer["eps"])
            hidden = np.maximum(layer["fc1_w"] @ hx2 + layer["fc1_b"], 0.0)
            x = x + (layer["fc2_w"] @ hidden + layer["fc2_b"])
        self.length = t + 1
        final = layer_norm_eval(x, self.ln_f_g, self.ln_f_b, self.ln_f_eps)
        logits = self.dec_w @ final + self.dec_b
        shifted = logits - logits.max()
        return shifted - np.log(np.exp(shifted).sum())


def transformer_search_points(model) -> list[str]:
    """The slice points budget search may vary on a transformer.

    Attention head counts and ``fc1`` hidden widths are free axes; the
    width controller and ``fc2`` must stay at the profile default so the
    residual stream keeps one consistent width.
    """
    names = []
    for name, module in named_slice_points(model):
        if isinstance(module, MultiHeadSelfAttention):
            names.append(name)
        elif isinstance(module, SlicedLinear) and name.endswith("fc1"):
            names.append(name)
    return names


def head_ffn_profile(model, head_rate: float, ffn_rate: float,
                     default: float = 1.0) -> LayerProfile:
    """Algorithm 1 profile over the head-count x FFN-width grid.

    Assigns ``head_rate`` to every attention slice point and ``ffn_rate``
    to every ``fc1``, leaving the residual width at ``default`` — the
    2-axis family the multi-rate trainer samples from.
    """
    rates: dict[str, float] = {}
    for name, module in named_slice_points(model):
        if isinstance(module, MultiHeadSelfAttention):
            rates[name] = head_rate
        elif isinstance(module, SlicedLinear) and name.endswith("fc1"):
            rates[name] = ffn_rate
    return LayerProfile(rates, default=default)
