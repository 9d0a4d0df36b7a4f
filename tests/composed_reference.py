"""Composed Tensor-op references for the single-node kernels.

:func:`repro.tensor.group_norm` and :func:`repro.tensor.cross_entropy`
are one graph node each, with analytic gradients, and every path of the
library (live layers, both training paths, compiled plan steps) runs
them.  The functions here compute the same maths from Tensor primitives,
so their values come from an independent chain of ops and their
gradients from autograd.  Tests check the kernels against them: forwards
bitwise, backwards to float32 rounding.
"""

import math

import numpy as np

from repro.errors import ShapeError
from repro.tensor import Tensor, log_softmax


def composed_group_norm(x: Tensor, weight: Tensor | None,
                        bias: Tensor | None, groups: int,
                        eps: float) -> Tensor:
    """Group norm of ``(B, C, ...)`` from Tensor mean/sub/mul/pow ops."""
    if x.shape[1] % groups:
        raise ShapeError(
            f"{x.shape[1]} channels do not split into {groups} groups")
    grouped = x.reshape(x.shape[0], groups, math.prod(x.shape[1:]) // groups)
    mean = grouped.mean(axis=2, keepdims=True)
    centered = grouped - mean
    var = (centered * centered).mean(axis=2, keepdims=True)
    normed = centered * ((var + eps) ** -0.5)
    normed = normed.reshape(x.shape)
    if weight is None:
        return normed
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    return normed * weight.reshape(shape) + bias.reshape(shape)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``(N,)`` integer ``targets`` under
    ``(N, C)`` log-probabilities, by Tensor indexing, sum and scale."""
    targets = np.asarray(targets)
    if log_probs.ndim != 2:
        raise ShapeError("nll_loss expects (N, C) log-probabilities")
    if targets.shape != (log_probs.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch "
            f"{log_probs.shape[0]}")
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -(picked.sum() * (1.0 / n))


def composed_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """``nll_loss(log_softmax(logits))``: three autograd nodes."""
    return nll_loss(log_softmax(logits, axis=-1), targets)
