"""Single-node group-norm and cross-entropy kernels.

Composed from Tensor primitives, group normalization and softmax
cross-entropy would be a dozen elementwise autograd nodes, each
allocating its output and its gradient.  :func:`group_norm` and
:func:`cross_entropy` compute them as *one* graph node each, with
analytically derived gradients.  They are the only implementations:
the live layers, both training paths and the compiled plan steps run
them (plans through the numpy forwards :func:`group_norm_eval` and
:func:`log_softmax_eval`).

Numerical contract
------------------
Under an active workspace arena (:func:`~repro.tensor.workspace.
use_workspace`) the kernels take their full-size buffers from the arena,
otherwise from numpy; the arithmetic is the same either way.  Forward
values are **bitwise identical** to the composed Tensor-op forms the
tests keep as references (python-float scale factors, ``np.float32``
eps, matching ``Tensor._coerce``).  Backward values are the analytic
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

__all__ = ["cross_entropy", "group_norm", "group_norm_eval",
           "log_softmax_eval"]


def log_softmax_eval(x: np.ndarray, axis: int = -1
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy log-softmax along ``axis``; returns ``(log_probs, exp, sums)``.

    The forward of :func:`~repro.tensor.functional.log_softmax`,
    :func:`cross_entropy` and compiled plan steps.  ``exp`` is the
    exponentiated shifted input and ``sums`` its sum along ``axis``
    (``exp / sums`` is the softmax the backward passes need).
    """
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=axis, keepdims=True)
    return shifted - np.log(sums), exp, sums


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``(N, C)`` ``logits`` and ``(N,)``
    integer ``targets``, as one node with analytic gradient.

    The forward is the mean negative log-likelihood of
    :func:`log_softmax_eval`; the backward is the closed form
    ``(softmax - onehot) * (g / n)``.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy expects (N, C) logits")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch "
            f"{logits.shape[0]}"
        )
    n = logits.shape[0]
    ws = active_workspace()
    timed = ws is not None and obs.enabled()
    started = obs.clock_now() if timed else None
    log_probs, exp, sums = log_softmax_eval(logits.data)
    picked = log_probs[np.arange(n), targets]
    loss = np.asarray(-(picked.sum() * (1.0 / n)))
    if timed:
        obs.observe("train_layer_seconds", obs.clock_now() - started,
                    layer="cross_entropy", phase="forward")

    def backward(grad):
        t0 = obs.clock_now() if ws is not None and obs.enabled() else None
        coef = grad * (1.0 / n)
        out = exp / sums
        out *= coef
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
                    beta: np.ndarray | None, groups: int, eps: float,
                    acquire=np.empty
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy group-norm forward; returns ``(out, yhat, inv_std)``.

    The one group-norm forward: :func:`group_norm` and compiled plan
    steps run it.  It works in two full-size buffers from
    ``acquire(shape, dtype)`` (numpy by default, a workspace arena's
    ``acquire`` in training): the centered input is normalized in place
    into ``yhat`` (``(B, groups, K)``), and the squares buffer is reused
    for the affine output when its dtype fits.  ``gamma``/``beta`` are
    the per-channel affine arrays (both None: no affine, ``out`` is
    ``yhat`` reshaped); ``out`` has the dtype of ``x`` promoted with
    theirs.
    """
    k = group_length(x.shape, groups)
    grouped = x.reshape(x.shape[0], groups, k)
    mean = grouped.sum(axis=2, keepdims=True)
    mean *= 1.0 / k
    yhat = acquire(grouped.shape, mean.dtype)
    np.subtract(grouped, mean, out=yhat)
    squares = acquire(grouped.shape, mean.dtype)
    np.multiply(yhat, yhat, out=squares)
    var = squares.sum(axis=2, keepdims=True)
    var *= 1.0 / k
    inv_std = (var + np.float32(eps)) ** -0.5
    yhat *= inv_std
    if gamma is None:
        return yhat.reshape(x.shape), yhat, inv_std
    dtype = np.result_type(yhat, gamma, beta)
    out = squares.reshape(x.shape) if dtype == squares.dtype \
        else acquire(x.shape, dtype)
    shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    np.multiply(yhat.reshape(x.shape), gamma.reshape(shape), out=out)
    out += beta.reshape(shape)
    return out, yhat, inv_std


def group_norm(x: Tensor, weight: Tensor | None, bias: Tensor | None,
               groups: int, eps: float) -> Tensor:
    """Group normalization of ``(B, C, ...)`` over ``groups`` contiguous
    channel groups, with optional per-channel affine ``weight``/``bias``,
    as one node with analytic gradients.

    ``weight``/``bias`` match ``x.shape[1]``; sliced layers pass prefix
    views so their ``__getitem__`` backward routes the gradient into the
    full parameter.  Under an active workspace arena every full-size
    buffer of the forward and the backward comes from the arena.
    """
    batch, channels, *spatial = x.shape
    k = group_length(x.shape, groups)
    flat = math.prod(spatial)
    ws = active_workspace()
    acquire = np.empty if ws is None else ws.acquire
    timed = ws is not None and obs.enabled()
    started = obs.clock_now() if timed else None
    gamma = None if weight is None else weight.data
    out, yhat, inv_std = group_norm_eval(
        x.data, gamma, None if bias is None else bias.data, groups, eps,
        acquire)
    parents = (x,) if gamma is None else (x, weight, bias)
    if timed:
        obs.observe("train_layer_seconds", obs.clock_now() - started,
                    layer="group_norm", phase="forward")

    def backward(grad):
        # Two-stage reductions (contiguous inner axis first, then the
        # small outer one) replace the strided multi-axis sums.
        t0 = obs.clock_now() if ws is not None and obs.enabled() else None
        bdt = np.result_type(grad, yhat)
        g3 = grad.reshape(batch, channels, flat)
        tmp = acquire((batch, channels, flat), bdt)
        tmpg = tmp.reshape(batch, groups, k)
        if gamma is None:
            grad_w = grad_b = None
            gg = grad.reshape(batch, groups, k)
            dxb = acquire((batch, groups, k), bdt)
        else:
            grad_b = g3.sum(axis=2).sum(axis=0)
            np.multiply(g3, yhat.reshape(batch, channels, flat), out=tmp)
            grad_w = tmp.sum(axis=2).sum(axis=0)
            ggb = acquire((batch, channels, flat), bdt)
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
        if t0 is not None:
            obs.observe("train_layer_seconds", obs.clock_now() - t0,
                        layer="group_norm", phase="backward")
        dx = dxb.reshape(x.shape)
        return (dx,) if gamma is None else (dx, grad_w, grad_b)

    return Tensor._make(out, parents, backward)
