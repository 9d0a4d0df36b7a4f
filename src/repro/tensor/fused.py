"""Fused forward/backward kernels for the training fast path.

The reference layers compose a dozen elementwise autograd nodes for group
normalization and softmax cross-entropy; every node allocates its output
and its gradient.  These kernels compute the same functions as a *single*
graph node each, with analytically derived gradients.

Numerical contract
------------------
Forward values are **bitwise identical** to the composed reference: each
kernel replays the reference's numpy operations in the same order with
the same scalar types (python-float scale factors, ``np.float32`` eps —
matching ``Tensor._coerce``).  Without a workspace the kernels run the
numpy forwards :func:`group_norm_eval` and :func:`log_softmax_eval`,
which compiled plan steps run too.  Backward values are the analytic
gradients of the same function; they agree with the composed autograd
to float32 rounding (and with finite differences via the gradcheck
sweep), but are not bit-for-bit the same chain of roundings.

GroupNorm input gradient (per group of ``K`` elements, ``s =
(var+eps)^{-1/2}``, ``yhat = centered * s``)::

    dx = s * (g - mean(g) - yhat * mean(g * yhat))

which is exact including the eps term, since ``d var/dx_j = 2 c_j / K``.
"""

from __future__ import annotations

import math

import numpy as np

from .. import obs
from ..errors import ShapeError
from .tensor import Tensor
from .workspace import active_workspace

__all__ = ["fused_cross_entropy", "fused_group_norm", "group_norm_eval",
           "log_softmax_eval"]


def log_softmax_eval(x: np.ndarray, axis: int = -1
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy log-softmax along ``axis``; returns ``(log_probs, exp, sums)``.

    The forward of :func:`~repro.tensor.functional.log_softmax`,
    :func:`fused_cross_entropy` and compiled plan steps.  ``exp`` is the
    exponentiated shifted input and ``sums`` its sum along ``axis``
    (``exp / sums`` is the softmax the backward passes need).
    """
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=axis, keepdims=True)
    return shifted - np.log(sums), exp, sums


def fused_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax + mean cross-entropy as one node with analytic gradient.

    Bitwise-matches ``nll_loss(log_softmax(logits), targets)`` in the
    forward; the backward is the closed form ``(softmax - onehot) *
    (g / n)`` instead of the three-node composed chain.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError("nll_loss expects (N, C) log-probabilities")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch "
            f"{logits.shape[0]}"
        )
    n = logits.shape[0]
    timed = obs.enabled()
    started = obs.clock_now() if timed else None
    log_probs, exp, sums = log_softmax_eval(logits.data)
    picked = log_probs[np.arange(n), targets]
    loss = np.asarray(-(picked.sum() * (1.0 / n)))
    softmax = exp / sums
    if timed:
        obs.observe("train_layer_seconds", obs.clock_now() - started,
                    layer="cross_entropy", phase="forward")

    def backward(grad):
        t0 = obs.clock_now() if obs.enabled() else None
        coef = grad * (1.0 / n)
        out = softmax * coef
        out[np.arange(n), targets] -= coef
        if t0 is not None:
            obs.observe("train_layer_seconds", obs.clock_now() - t0,
                        layer="cross_entropy", phase="backward")
        return (out,)

    return Tensor._make(loss, (logits,), backward)


def group_length(shape: tuple[int, ...], groups: int) -> int:
    """Elements per group of a ``(B, C, ...)`` group norm over ``groups``."""
    if shape[1] % groups:
        raise ShapeError(f"{shape[1]} channels do not split into {groups} groups")
    return math.prod(shape[1:]) // groups


def group_norm_eval(x: np.ndarray, gamma: np.ndarray | None,
                    beta: np.ndarray | None, groups: int, eps: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy group-norm forward; returns ``(out, yhat, inv_std)``.

    The forward of :func:`fused_group_norm` without a workspace and of
    compiled plan steps; it replays the composed reference
    (:func:`~repro.tensor.functional.group_norm`) bitwise.  It works in two
    full-size buffers: the centered input is normalized in place into
    ``yhat`` (``(B, groups, K)``), and the squares buffer is reused for
    the affine output.  ``gamma``/``beta`` are the per-channel affine
    arrays (both None: no affine, ``out`` is ``yhat`` reshaped).
    """
    k = group_length(x.shape, groups)
    grouped = x.reshape(x.shape[0], groups, k)
    inv_count = 1.0 / k
    mean = grouped.sum(axis=2, keepdims=True) * inv_count
    yhat = grouped - mean
    out = yhat * yhat
    var = out.sum(axis=2, keepdims=True) * inv_count
    inv_std = (var + np.float32(eps)) ** -0.5
    yhat *= inv_std
    if gamma is None:
        return yhat.reshape(x.shape), yhat, inv_std
    out = out.reshape(x.shape)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    np.multiply(yhat.reshape(x.shape), gamma.reshape(shape), out=out)
    out += beta.reshape(shape)
    return out, yhat, inv_std


def fused_group_norm(x: Tensor, weight: Tensor | None, bias: Tensor | None,
                     groups: int, eps: float) -> Tensor:
    """Group normalization as one node with analytic gradients.

    ``weight``/``bias`` are the per-channel affine tensors matching
    ``x.shape[1]`` — for sliced layers, pass the prefix views so their
    ``__getitem__`` backward routes the gradient into the full parameter.
    """
    batch, channels, *spatial = x.shape
    k = group_length(x.shape, groups)
    flat = math.prod(spatial)
    timed = obs.enabled()
    started = obs.clock_now() if timed else None
    ws = active_workspace()
    affine_shape = (1, channels) + (1,) * len(spatial)
    gamma = None if weight is None else weight.data.reshape(affine_shape)
    if ws is not None:
        # Pooled buffers, same operations in the same order: the forward
        # stays bitwise identical to group_norm_eval while the full-size
        # temporaries come from the arena.
        grouped = x.data.reshape(batch, groups, k)
        mean = grouped.sum(axis=2, keepdims=True)
        mean *= 1.0 / k
        dt = mean.dtype
        yhat = ws.acquire((batch, groups, k), dt)
        np.subtract(grouped, mean, out=yhat)
        sq = ws.acquire((batch, groups, k), dt)
        np.multiply(yhat, yhat, out=sq)
        var = sq.sum(axis=2, keepdims=True)
        var *= 1.0 / k
        inv_std = (var + np.float32(eps)) ** -0.5
        yhat *= inv_std
        if gamma is None:
            out = yhat.reshape(x.shape)
        else:
            out = ws.acquire(x.shape, np.result_type(dt, gamma.dtype))
            np.multiply(yhat.reshape(x.shape), gamma, out=out)
            out += bias.data.reshape(affine_shape)
    else:
        out, yhat, inv_std = group_norm_eval(
            x.data, None if weight is None else weight.data,
            None if bias is None else bias.data, groups, eps)
    normed = yhat.reshape(x.shape)
    parents = (x,) if gamma is None else (x, weight, bias)
    reduce_axes = (0,) + tuple(range(2, 2 + len(spatial)))
    if timed:
        obs.observe("train_layer_seconds", obs.clock_now() - started,
                    layer="group_norm", phase="forward")

    def backward(grad):
        t0 = obs.clock_now() if obs.enabled() else None
        if ws is not None:
            # Two-stage reductions (contiguous inner axis first, then the
            # small outer one) replace the strided multi-axis sums, and
            # every full-size temporary is pooled.
            bdt = np.result_type(grad.dtype, dt)
            g3 = grad.reshape(batch, channels, flat)
            tmp = ws.acquire((batch, channels, flat), bdt)
            tmpg = tmp.reshape(batch, groups, k)
            if gamma is None:
                grad_w = grad_b = None
                gg = grad.reshape(batch, groups, k)
                dxb = ws.acquire((batch, groups, k), bdt)
            else:
                grad_b = g3.sum(axis=2).sum(axis=0)
                np.multiply(g3, normed.reshape(batch, channels, flat),
                            out=tmp)
                grad_w = tmp.sum(axis=2).sum(axis=0)
                ggb = ws.acquire((batch, channels, flat), bdt)
                np.multiply(g3, gamma.reshape(1, channels, 1), out=ggb)
                gg = ggb.reshape(batch, groups, k)
                dxb = gg  # elementwise chain below may overwrite gg
            m1 = gg.sum(axis=2, keepdims=True)
            m1 *= 1.0 / k
            np.multiply(gg, yhat, out=tmpg)
            m2 = tmpg.sum(axis=2, keepdims=True)
            m2 *= 1.0 / k
            np.multiply(yhat, m2, out=tmpg)
            np.subtract(gg, m1, out=dxb)
            dxb -= tmpg
            dxb *= inv_std
            dx = dxb.reshape(x.shape)
        else:
            if gamma is None:
                grad_w = grad_b = None
                gg = grad.reshape(batch, groups, k)
            else:
                grad_b = grad.sum(axis=reduce_axes)
                grad_w = (grad * normed).sum(axis=reduce_axes)
                gg = (grad * gamma).reshape(batch, groups, k)
            m1 = gg.sum(axis=2, keepdims=True) * (1.0 / k)
            m2 = (gg * yhat).sum(axis=2, keepdims=True) * (1.0 / k)
            dx = (inv_std * (gg - m1 - yhat * m2)).reshape(x.shape)
        if t0 is not None:
            obs.observe("train_layer_seconds", obs.clock_now() - t0,
                        layer="group_norm", phase="backward")
        if gamma is None:
            return (dx,)
        return (dx, grad_w, grad_b)

    return Tensor._make(out, parents, backward)
