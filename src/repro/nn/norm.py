"""Normalization layers: BatchNorm2d, GroupNorm, and LayerNorm.

BatchNorm2d is composed from differentiable tensor primitives, so its
backward pass comes from autograd.  GroupNorm is the normalization the
paper pairs with model slicing (Sec. 3.2): its statistics are computed per
group at run time, so they remain correct when the number of active
channels varies.  It runs :func:`repro.tensor.group_norm`, the one
group-norm kernel :class:`~repro.slicing.SlicedGroupNorm`, the training
fast path and compiled plan steps run too.
LayerNorm (the transformer normalization) is a single custom autograd
node with an analytic backward; its forward is factored into
:func:`layer_norm_eval` so compiled plans and materialized subnets
replay the exact same arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from ..tensor import Tensor, group_norm
from .init import ones, zeros
from .module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalization over NCHW tensors with running statistics.

    The forward normalizes the channels that arrive: all
    ``num_features`` of them, or any prefix when :attr:`accepts_prefix`
    is set (:class:`~repro.slicing.SlicedBatchNorm2d` runs it at every
    slice width).  A train-mode forward updates that prefix of the
    running statistics and *rebinds* both arrays, so a compiled plan that
    folded the old statistics sees the change by identity.
    """

    accepts_prefix = False

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        if num_features <= 0:
            raise ConfigError(
                f"{type(self).__name__} num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(ones((num_features,)))
        self.bias = Parameter(zeros((num_features,)))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def extra_state(self) -> dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def load_extra_state(self, key: str, value: np.ndarray) -> None:
        if key == "running_mean":
            self.running_mean = value.copy()
        elif key == "running_var":
            self.running_var = value.copy()
        else:
            raise ConfigError(
                f"{type(self).__name__} has no extra state {key!r}")

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"{type(self).__name__} expects NCHW input")
        c = x.shape[1]
        if c > self.num_features or (
                c < self.num_features and not self.accepts_prefix):
            raise ShapeError(
                f"{type(self).__name__} built for {self.num_features} "
                f"channels, got {c}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self.running_mean = np.concatenate((
                (1 - m) * self.running_mean[:c] + m * mean.data.reshape(-1),
                self.running_mean[c:]))
            self.running_var = np.concatenate((
                (1 - m) * self.running_var[:c] + m * var.data.reshape(-1),
                self.running_var[c:]))
            normed = centered * ((var + self.eps) ** -0.5)
        else:
            mean = self.running_mean[:c].reshape(1, c, 1, 1)
            var = self.running_var[:c].reshape(1, c, 1, 1)
            normed = (x - mean) * ((Tensor(var) + self.eps) ** -0.5)
        gamma = self.weight[:c].reshape(1, c, 1, 1)
        beta = self.bias[:c].reshape(1, c, 1, 1)
        return normed * gamma + beta


def _layer_norm_stats(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalize ``x`` over its last axis; returns ``(xhat, inv_std)``.

    ``sum / n`` is spelled out instead of ``.mean`` — numpy's mean is the
    same pairwise sum followed by the same true-divide (so the values are
    bitwise identical), minus a few Python dispatch layers that dominate
    at transformer-block widths.
    """
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / n
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = (var + eps) ** -0.5
    return centered * inv, inv


def layer_norm_eval(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    eps: float = 1e-5) -> np.ndarray:
    """Numpy layer-norm forward shared by the live layer and compiled plans.

    Both callers route through this one function so a compiled plan's
    folded-LayerNorm step is bitwise identical to the live module.
    """
    xhat, _ = _layer_norm_stats(x, eps)
    return xhat * gamma + beta


class LayerNorm(Module):
    """Layer normalization over the last axis, slicing-aware.

    Like GroupNorm, LayerNorm has no slice point of its own: it *follows
    the arriving width*.  When the residual stream is sliced to ``d``
    columns the layer normalizes over those ``d`` columns and applies the
    first ``d`` entries of ``weight``/``bias``.  Statistics are computed at
    run time, so they remain correct at every active width (this is the
    property "Slicing Vision Transformer for Flexible Inference" identifies
    as what lets pre-norm blocks slice without recalibration).

    The forward is one custom autograd node with an analytic backward —
    cheaper than composing ~10 primitive nodes, and gradcheck-swept in
    ``tests/test_gradcheck_sweep.py``.
    """

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        if num_features <= 0:
            raise ConfigError("LayerNorm num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(ones((num_features,)))
        self.bias = Parameter(zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        width = x.shape[-1]
        if width > self.num_features:
            raise ShapeError(
                f"LayerNorm built for {self.num_features} features, "
                f"got {width}"
            )
        gamma = self.weight[:width]
        beta = self.bias[:width]
        xd, gd, bd = x.data, gamma.data, beta.data
        xhat, inv = _layer_norm_stats(xd, self.eps)
        out = xhat * gd + bd
        n = width

        def backward(grad):
            flat = grad.reshape(-1, n)
            dgamma = (grad * xhat).reshape(-1, n).sum(axis=0)
            dbeta = flat.sum(axis=0)
            dxhat = grad * gd
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return (dx, dgamma, dbeta)

        return Tensor._make(out, (x, gamma, beta), backward)


class GroupNorm(Module):
    """Group normalization (Wu & He, 2018) over ``(B, C, ...)`` tensors.

    Channels are divided into ``num_groups`` contiguous groups; mean and
    variance are computed per sample per group at run time.  Contiguous
    grouping is what makes this compatible with model slicing: slicing keeps
    a prefix of whole groups, so every surviving group still normalizes over
    exactly the channels it was trained with.
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5,
                 affine: bool = True):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ConfigError(
                f"num_channels={num_channels} not divisible by "
                f"num_groups={num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        if affine:
            self.weight = Parameter(ones((num_channels,)))
            self.bias = Parameter(zeros((num_channels,)))
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.num_channels:
            raise ShapeError(
                f"GroupNorm configured for {self.num_channels} channels, "
                f"got {x.shape[1]}"
            )
        return group_norm(x, self.weight, self.bias, self.num_groups,
                          self.eps)
