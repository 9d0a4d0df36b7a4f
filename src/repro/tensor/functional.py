"""Composite differentiable functions built on the Tensor primitives.

Group normalization and cross-entropy are single-node kernels in
:mod:`repro.tensor.fused`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .fused import log_softmax_eval
from .tensor import Tensor


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
