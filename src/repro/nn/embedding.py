"""Embedding lookup layers (token and learned-positional)."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from ..tensor import Tensor
from ..tensor import embedding as embedding_fn
from .init import uniform
from .module import Module, Parameter


class Embedding(Module):
    """Trainable lookup table mapping integer ids to dense vectors.

    With ``slice_output=True`` the embedding becomes the model's *width
    controller*: the output dimension follows the active profile width, so
    a decoder LM slices from its very first layer (this fixes the original
    behavior where the arriving slice context was silently ignored — the
    embedding always emitted the full width and nothing upstream of the
    recurrent/attention stack could slice).  The default stays ``False``
    because the paper's NNLM deliberately leaves the embedding unsliced;
    opting in is a per-model architecture decision.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None,
                 init_bound: float = 0.1, slice_output: bool = False,
                 num_groups: int = 8):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ConfigError("Embedding sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.slice_output = slice_output
        self.weight = Parameter(
            uniform(rng, (num_embeddings, embedding_dim), init_bound)
        )
        if slice_output:
            from ..slicing.partition import GroupPartition
            from ..slicing.profile import auto_slice_point

            self.out_partition = GroupPartition(
                embedding_dim, min(num_groups, embedding_dim)
            )
            self.slice_point = auto_slice_point(self)
            self.slice_group_size = 1
        else:
            self.out_partition = None

    def active_width(self, rate: float | None = None) -> int:
        """Output width at ``rate`` (ambient rate if omitted)."""
        if not self.slice_output:
            return self.embedding_dim
        if rate is None:
            from ..slicing.context import resolve_rate

            rate = resolve_rate(self)
        return self.out_partition.width_for(rate)

    def forward(self, indices: np.ndarray) -> Tensor:
        width = self.active_width()
        if width == self.embedding_dim:
            return embedding_fn(self.weight, indices)
        # Gathering from the column prefix is exactly the column prefix of
        # the full gather, so Eq. 2 nesting holds at the first layer too.
        return embedding_fn(self.weight[:, :width], indices)


class LearnedPositional(Module):
    """Learned additive positional embedding that follows the arriving width.

    Adds ``weight[:T, :d]`` to the activation, where ``d`` is whatever
    width the token/patch embedding produced — like norms, it has no slice
    point of its own.
    """

    def __init__(self, max_len: int, embedding_dim: int,
                 batch_first: bool = True,
                 rng: np.random.Generator | None = None,
                 init_bound: float = 0.02):
        super().__init__()
        if max_len <= 0 or embedding_dim <= 0:
            raise ConfigError("LearnedPositional sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.max_len = max_len
        self.embedding_dim = embedding_dim
        self.batch_first = batch_first
        self.weight = Parameter(
            uniform(rng, (max_len, embedding_dim), init_bound)
        )

    def forward(self, x: Tensor) -> Tensor:
        seq_len = x.shape[1] if self.batch_first else x.shape[0]
        width = x.shape[-1]
        if seq_len > self.max_len:
            raise ShapeError(
                f"sequence length {seq_len} exceeds max_len {self.max_len}"
            )
        if width > self.embedding_dim:
            raise ShapeError(
                f"LearnedPositional built for width {self.embedding_dim}, "
                f"got {width}"
            )
        pos = self.weight[:seq_len, :width]
        if not self.batch_first:
            pos = pos.reshape(seq_len, 1, width)
        return x + pos
