"""Composite differentiable functions built on the Tensor primitives."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .fused import (fused_cross_entropy, fused_group_norm, group_length,
                    log_softmax_eval)
from .tensor import Tensor
from .workspace import active_workspace


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    out, exp, sums = log_softmax_eval(x.data, axis)
    softmax_vals = exp / sums

    def backward(grad):
        return (grad - softmax_vals * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets``.

    Parameters
    ----------
    log_probs:
        ``(N, C)`` log-probabilities, e.g. from :func:`log_softmax`.
    targets:
        ``(N,)`` integer class indices.
    """
    targets = np.asarray(targets)
    if log_probs.ndim != 2:
        raise ShapeError("nll_loss expects (N, C) log-probabilities")
    if targets.shape != (log_probs.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch {log_probs.shape[0]}"
        )
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -(picked.sum() * (1.0 / n))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer ``targets``.

    Under an active training workspace (:func:`~repro.tensor.workspace.
    use_workspace`) this dispatches to the single-node fused kernel; the
    forward value is bitwise identical either way.
    """
    if active_workspace() is not None:
        return fused_cross_entropy(logits, targets)
    return nll_loss(log_softmax(logits, axis=-1), targets)


def group_norm(x: Tensor, weight: Tensor | None, bias: Tensor | None,
               groups: int, eps: float) -> Tensor:
    """Group normalization of ``(B, C, ...)`` over ``groups`` contiguous
    channel groups, with optional per-channel affine ``weight``/``bias``.

    Under an active training workspace this dispatches to the fused
    single-node kernel; otherwise it composes tensor primitives.  The
    forward value is bitwise identical either way, and compiled plans'
    :func:`~repro.tensor.fused.group_norm_eval` replays it bitwise.
    """
    if active_workspace() is not None:
        return fused_group_norm(x, weight, bias, groups, eps)
    grouped = x.reshape(x.shape[0], groups, group_length(x.shape, groups))
    mean = grouped.mean(axis=2, keepdims=True)
    centered = grouped - mean
    var = (centered * centered).mean(axis=2, keepdims=True)
    normed = centered * ((var + eps) ** -0.5)
    normed = normed.reshape(x.shape)
    if weight is None:
        return normed
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    return normed * weight.reshape(shape) + bias.reshape(shape)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, rescale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(x.data * mask, (x,), backward)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``indices`` as a one-hot float array."""
    idx = np.asarray(indices)
    out = np.zeros(idx.shape + (num_classes,), dtype=np.float32)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def mse_loss(pred: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean()
