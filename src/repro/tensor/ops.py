"""Structured differentiable operations: convolution, pooling, embedding.

The convolution is implemented with im2col + matmul, which is the right
trade-off for a single-core numpy substrate: one BLAS call per layer does
the heavy lifting, and the backward pass reuses the same column buffer.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..errors import ShapeError
from .profile import profiling_active, record_flops
from .tensor import Tensor
from .workspace import active_workspace, unfold_windows


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ShapeError(f"expected an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: tuple[int, int], padding: tuple[int, int]
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``x`` (B, C, H, W) into columns (B, C*kh*kw, Hout*Wout)."""
    batch, channels, height, width = x.shape
    ph, pw = padding
    sh, sw = stride
    h_out = (height + 2 * ph - kh) // sh + 1
    w_out = (width + 2 * pw - kw) // sw + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(
            f"conv output would be empty for input {x.shape}, kernel ({kh},{kw})"
        )
    padded = x
    if ph or pw:
        padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw),
                          dtype=x.dtype)
        padded[:, :, ph:ph + height, pw:pw + width] = x
    cols = np.empty((batch, channels * kh * kw, h_out * w_out), dtype=x.dtype)
    unfold_windows(padded, kh, kw, stride, cols)
    return cols, (h_out, w_out)


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: tuple[int, int],
    padding: tuple[int, int],
    out_hw: tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add columns back into an image."""
    batch, channels, height, width = x_shape
    ph, pw = padding
    sh, sw = stride
    h_out, w_out = out_hw
    padded = np.zeros(
        (batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype
    )
    cols = cols.reshape(batch, channels, kh, kw, h_out, w_out)
    for i in range(kh):
        i_end = i + sh * h_out
        for j in range(kw):
            j_end = j + sw * w_out
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + height, pw : pw + width]
    return padded


def conv2d_cols(cols: np.ndarray, w_mat: np.ndarray, bias: np.ndarray | None,
                out_hw: tuple[int, int]) -> np.ndarray:
    """Filters ``(C_out, C_in*kh*kw)`` times columns ``(B, C_in*kh*kw, L)``.

    One GEMM per image via batched matmul, then the per-channel bias;
    returns ``(B, C_out, Hout, Wout)``.
    """
    out = (w_mat @ cols).reshape((cols.shape[0], w_mat.shape[0]) + out_hw)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def conv2d_eval(x: np.ndarray, w_mat: np.ndarray, bias: np.ndarray | None,
                kernel_size: tuple[int, int], stride: tuple[int, int],
                padding: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Numpy convolution forward; returns ``(out, cols)``.

    The one conv forward of :func:`conv2d` without a workspace and of
    compiled plan steps, so a plan's convolution is bitwise the live
    layer's.  ``cols`` is the im2col matrix the backward pass reuses.
    """
    kh, kw = kernel_size
    cols, out_hw = _im2col(x, kh, kw, stride, padding)
    return conv2d_cols(cols, w_mat, bias, out_hw), cols


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2D convolution over an NCHW tensor.

    Parameters
    ----------
    x:
        Input of shape ``(B, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError("conv2d expects 4D input and 4D weight")
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(
            f"conv2d input has {x.shape[1]} channels but weight expects {c_in}"
        )
    ws = active_workspace()
    timed = ws is not None and obs.enabled()
    started = obs.clock_now() if timed else None
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    if ws is not None:
        # Training fast path: im2col / GEMM output / col2im all come from
        # the pooled arena; values are bitwise identical to the branch
        # below.  The arena object is captured by the backward closure so
        # the buffers stay paired even if backward runs after the
        # use_workspace context exited.
        cols, (h_out, w_out) = ws.im2col(x.data, kh, kw, stride, padding)
        # The pinned-input column cache must never be written to; any
        # other cols buffer can be recycled as the grad_cols scratch in
        # backward (grad_w reads it first).
        cols_writable = x.data is not ws.pinned
        out3 = ws.acquire(
            (x.shape[0], c_out, h_out * w_out),
            np.result_type(w_mat.dtype, cols.dtype),
        )
        np.matmul(w_mat, cols, out=out3)
        out = out3.reshape(x.shape[0], c_out, h_out, w_out)
        if bias is not None:
            out += bias.data.reshape(1, c_out, 1, 1)
    else:
        out, cols = conv2d_eval(x.data, w_mat,
                                None if bias is None else bias.data,
                                (kh, kw), stride, padding)
        h_out, w_out = out.shape[2:]
    if profiling_active():
        record_flops(
            "conv2d", x.shape[0] * c_out * c_in * kh * kw * h_out * w_out
        )
    if timed:
        obs.observe("train_layer_seconds", obs.clock_now() - started,
                    layer="conv2d", phase="forward")

    parents = [x, weight] if bias is None else [x, weight, bias]
    x_shape = x.shape
    needs_grad_x = x.requires_grad

    def backward(grad):
        t0 = obs.clock_now() if ws is not None and obs.enabled() else None
        grad_mat = grad.reshape(grad.shape[0], c_out, h_out * w_out)
        if ws is not None:
            # Batched GEMM into a pooled buffer then reduce over the batch
            # beats the einsum contraction at the large-L early layers.
            bmm = ws.acquire(
                (grad.shape[0], c_out, c_in * kh * kw),
                np.result_type(grad_mat.dtype, cols.dtype),
            )
            np.matmul(grad_mat, cols.transpose(0, 2, 1), out=bmm)
            grad_w = bmm.sum(axis=0).reshape(weight.shape)
        else:
            grad_w = np.einsum("boL,bkL->ok", grad_mat, cols, optimize=True)
            grad_w = grad_w.reshape(weight.shape)
        if ws is not None:
            if needs_grad_x:
                sh, sw = stride
                ph, pw = padding
                if (sh == 1 and sw == 1 and ph < kh and pw < kw
                        and c_in > c_out // 2):
                    # Transposed convolution as a correlation with the
                    # flipped kernel: im2col of the output gradient plus
                    # one GEMM replaces the GEMM + col2im scatter-add.
                    # Wins when the input has enough channels that the
                    # scatter traffic exceeds the grad-unfold copy.
                    gcols, _ = ws.im2col(
                        np.ascontiguousarray(grad), kh, kw, (1, 1),
                        (kh - 1 - ph, kw - 1 - pw))
                    w_flip = weight.data[:, :, ::-1, ::-1].transpose(
                        1, 0, 2, 3).reshape(c_in, c_out * kh * kw)
                    gx3 = ws.acquire(
                        (grad.shape[0], c_in, x_shape[2] * x_shape[3]),
                        np.result_type(w_flip.dtype, gcols.dtype),
                    )
                    np.matmul(w_flip, gcols, out=gx3)
                    grad_x = gx3.reshape(x_shape)
                else:
                    if cols_writable and cols.dtype == np.result_type(
                            w_mat.dtype, grad_mat.dtype):
                        grad_cols = cols  # grad_w above was the last reader
                    else:
                        grad_cols = ws.acquire(
                            (grad.shape[0], c_in * kh * kw, h_out * w_out),
                            np.result_type(w_mat.dtype, grad_mat.dtype),
                        )
                    np.matmul(w_mat.T, grad_mat, out=grad_cols)
                    grad_x = ws.col2im(grad_cols, x_shape, kh, kw, stride,
                                       padding, (h_out, w_out))
            else:
                # The input never receives a gradient (e.g. the stem conv
                # fed by raw images) — skip the GEMM and the scatter.
                grad_x = None
        else:
            grad_cols = w_mat.T @ grad_mat  # (B, C_in*kh*kw, L)
            grad_x = _col2im(grad_cols, x_shape, kh, kw, stride, padding,
                             (h_out, w_out))
        if t0 is not None:
            obs.observe("train_layer_seconds", obs.clock_now() - t0,
                        layer="conv2d", phase="backward")
        if bias is None:
            return (grad_x, grad_w)
        grad_b = grad.sum(axis=(0, 2, 3))
        return (grad_x, grad_w, grad_b)

    return Tensor._make(out, parents, backward)


def window_max(view: np.ndarray, out: np.ndarray | None = None,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Max over the ``k x k`` taps of a ``(b, c, h, k, w, k)`` pool view.

    Bitwise equal to ``view.max(axis=(3, 5))``, signed zeros included,
    but pairwise ``np.maximum`` over the tap slices instead of numpy's
    slow tiny-inner-axis reduce.  The order is part of the contract:
    the w taps (last axis) first, into ``rows`` of shape
    ``(b, c, h, k, w)``, then the h taps into ``out``.  ``np.maximum``
    keeps its second operand on a tie, so the h-first order picks a
    different zero: on the window ``[[0.0, 0.0], [-0.0, -1.0]]`` the
    reduce and the w-first order give ``-0.0``, h-first gives ``0.0``.
    ``out`` and ``rows`` are optional preallocated buffers.
    """
    batch, channels, h_out, k, w_out, _ = view.shape
    if rows is None:
        rows = np.empty((batch, channels, h_out, k, w_out), view.dtype)
    if out is None:
        out = np.empty((batch, channels, h_out, w_out), view.dtype)
    np.copyto(rows, view[..., 0])
    for j in range(1, k):
        np.maximum(rows, view[..., j], out=rows)
    np.copyto(out, rows[:, :, :, 0])
    for i in range(1, k):
        np.maximum(out, rows[:, :, :, i], out=out)
    return out


def max_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping max pooling with square kernel ``kernel_size``."""
    k = int(kernel_size)
    batch, channels, height, width = x.shape
    if height % k or width % k:
        raise ShapeError(f"max_pool2d: spatial dims {height}x{width} not divisible by {k}")
    h_out, w_out = height // k, width // k
    view = x.data.reshape(batch, channels, h_out, k, w_out, k)
    ws = active_workspace()
    if ws is not None:
        # Pairwise sums over the tap slices produce the same tie counts
        # as the multi-axis reduction (integer sums are exact) but avoid
        # numpy's slow tiny-inner-axis reduce loop.  The tie-splitting
        # divisor is kept in the input dtype: the reference divides by
        # integer counts, which NEP-50 promotes to float64 and drags
        # every downstream gradient to doubled memory traffic.
        dt = x.data.dtype
        out = window_max(
            view, out=ws.acquire((batch, channels, h_out, w_out), dt),
            rows=ws.acquire((batch, channels, h_out, k, w_out), dt))
        mask = ws.acquire((batch, channels, h_out, k, w_out, k), np.bool_)
        np.equal(view, out[:, :, :, None, :, None], out=mask)
        c5 = ws.acquire((batch, channels, h_out, k, w_out), np.intp)
        np.copyto(c5, mask[..., 0])
        for j in range(1, k):
            c5 += mask[..., j]
        csmall = c5[:, :, :, 0].astype(np.intp)
        for i in range(1, k):
            csmall += c5[:, :, :, i]
        counts = csmall[:, :, :, None, :, None].astype(dt)
    else:
        out = window_max(view)
        mask = view == out[:, :, :, None, :, None]
        counts = mask.sum(axis=(3, 5), keepdims=True)

    def backward(grad):
        g = grad[:, :, :, None, :, None] / counts
        if ws is not None:
            buf = ws.acquire(
                (batch, channels, h_out, k, w_out, k), g.dtype)
            np.multiply(mask, g, out=buf)
            return (buf.reshape(batch, channels, height, width),)
        return ((mask * g).reshape(batch, channels, height, width),)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int) -> Tensor:
    """Non-overlapping average pooling with square kernel ``kernel_size``."""
    k = int(kernel_size)
    batch, channels, height, width = x.shape
    if height % k or width % k:
        raise ShapeError(f"avg_pool2d: spatial dims {height}x{width} not divisible by {k}")
    h_out, w_out = height // k, width // k
    view = x.data.reshape(batch, channels, h_out, k, w_out, k)
    out = view.mean(axis=(3, 5))
    scale = 1.0 / (k * k)

    def backward(grad):
        g = np.broadcast_to(
            grad[:, :, :, None, :, None] * scale,
            (batch, channels, h_out, k, w_out, k),
        )
        return (g.reshape(batch, channels, height, width).astype(x.dtype, copy=False),)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, returning ``(B, C)``."""
    return x.mean(axis=(2, 3))


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` at ``indices`` (any integer-array shape).

    Returns a tensor of shape ``indices.shape + (embed_dim,)``.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise ShapeError("embedding indices must be integers")
    vocab = weight.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise ShapeError("embedding index out of range")
    out = weight.data[idx]

    def backward(grad):
        grad_w = np.zeros_like(weight.data)
        np.add.at(grad_w, idx.reshape(-1), grad.reshape(-1, grad.shape[-1]))
        return (grad_w,)

    return Tensor._make(out, (weight,), backward)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the two trailing spatial dimensions by ``pad`` on each side."""
    p = int(pad)
    if p == 0:
        return x
    out = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))

    def backward(grad):
        return (grad[:, :, p:-p, p:-p],)

    return Tensor._make(out, (x,), backward)


def pad_channels(x: Tensor, total_channels: int) -> Tensor:
    """Zero-pad the channel dimension of an NCHW tensor up to ``total_channels``.

    Used by residual shortcuts when a sliced block emits fewer channels
    than its identity path expects.
    """
    current = x.shape[1]
    if current == total_channels:
        return x
    if current > total_channels:
        raise ShapeError(
            f"cannot pad {current} channels down to {total_channels}"
        )
    width = total_channels - current
    pads = [(0, 0)] * x.ndim
    pads[1] = (0, width)
    out = np.pad(x.data, pads)

    def backward(grad):
        return (grad[:, :current],)

    return Tensor._make(out, (x,), backward)
