"""Pooled autograd workspaces for the training fast path.

Training spends most of its time in the conv im2col/col2im pair and, on a
numpy substrate, most of *that* time re-allocating the same buffers batch
after batch: the padded input, the column matrix, the GEMM output and the
gradient temporaries all have shapes that repeat for every step of a run.
A :class:`WorkspaceArena` keeps those buffers in a shape-keyed pool, so
steady-state training allocates nothing on the conv hot path.

Lifecycle
---------
The arena distinguishes two scopes:

``pass``
    Buffers that live for one forward/backward pass of one slice rate.
    :meth:`WorkspaceArena.end_pass` (called by the trainer after each
    ``loss.backward()``) recycles them; until then every ``acquire``
    hands out a distinct buffer, which is what makes it safe for the
    autograd closures created during the forward to keep using their
    buffers during the backward.

``step``
    Buffers that live for one full Algorithm-1 step (all scheduled
    rates of one batch).  The only current tenant is the *pinned-input
    column cache*: the network input is never sliced, so the first conv
    layer's im2col columns are identical for every scheduled rate and
    are computed once per batch (`train_ws_col_reuses_total` counts the
    passes that skipped the recompute).  :meth:`WorkspaceArena.end_step`
    recycles them and clears the cache.

An arena is activated with :func:`use_workspace`; :func:`conv2d
<repro.tensor.ops.conv2d>`, max pooling and :func:`group_norm
<repro.tensor.fused.group_norm>` consult
:func:`active_workspace` at *forward* time and capture the arena in
their backward closures, so a backward pass that runs after the context
exited (e.g. under gradcheck) still works.

An arena is single-threaded by design: one arena must not serve two
concurrent training loops, and tensors produced under an arena must not
be kept alive across ``end_pass``/``end_step`` boundaries (their data
may be recycled).
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError
from .. import obs

__all__ = [
    "WorkspaceArena",
    "use_workspace",
    "active_workspace",
]

_ACTIVE: "WorkspaceArena | None" = None


def unfold_windows(padded: np.ndarray, kh: int, kw: int,
                   stride: tuple[int, int], cols: np.ndarray) -> None:
    """Copy every ``(kh, kw)`` window of ``padded`` (B, C, Hp, Wp) into
    ``cols`` (B, C*kh*kw, Hout*Wout): the column gather of both
    :func:`repro.tensor.ops._im2col` and :meth:`WorkspaceArena.im2col`.
    """
    batch, channels = padded.shape[:2]
    sh, sw = stride
    h_out = (padded.shape[2] - kh) // sh + 1
    w_out = (padded.shape[3] - kw) // sw + 1
    s0, s1, s2, s3 = padded.strides
    view = as_strided(
        padded,
        (batch, channels, kh, kw, h_out, w_out),
        (s0, s1, s2, s3, s2 * sh, s3 * sw),
    )
    cols.reshape(batch, channels, kh, kw, h_out, w_out)[...] = view


def active_workspace() -> "WorkspaceArena | None":
    """The arena installed by :func:`use_workspace`, if any."""
    return _ACTIVE


@contextlib.contextmanager
def use_workspace(arena: "WorkspaceArena"):
    """Run the enclosed block with ``arena`` as the active workspace.

    While active, :func:`~repro.tensor.ops.conv2d` draws its im2col /
    col2im / GEMM buffers from the arena, max pooling and group norm
    their full-size temporaries, and the conv, group-norm and
    cross-entropy kernels record ``train_layer_seconds``.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = arena
    try:
        yield arena
    finally:
        _ACTIVE = previous


class WorkspaceArena:
    """Shape-keyed pool of numpy scratch buffers with pass/step scopes."""

    def __init__(self):
        # (scope, shape, dtype str) -> every buffer ever allocated for it.
        self._pools: dict[tuple, list[np.ndarray]] = {}
        # Same key -> how many of those buffers are handed out right now.
        self._cursor: dict[tuple, int] = {}
        self._pinned: np.ndarray | None = None
        # (shape, kh, kw, stride, padding) -> (cols, (h_out, w_out)).
        self._col_cache: dict[tuple, tuple[np.ndarray, tuple[int, int]]] = {}
        self.pool_hits = 0
        self.pool_misses = 0
        self.col_reuses = 0

    @property
    def pinned(self) -> np.ndarray | None:
        """The step's pinned input array, if any (see :meth:`begin_step`)."""
        return self._pinned

    # -- pooling ---------------------------------------------------------
    def acquire(self, shape: tuple[int, ...], dtype,
                scope: str = "pass") -> np.ndarray:
        """A pooled buffer of ``shape``/``dtype``, unique until its scope
        is reset.  Contents are uninitialized."""
        key = (scope, tuple(shape), np.dtype(dtype).str)
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = []
        cursor = self._cursor.get(key, 0)
        self._cursor[key] = cursor + 1
        if cursor < len(pool):
            self.pool_hits += 1
            if obs.enabled():
                obs.count("train_ws_pool_hits_total", scope=scope)
            return pool[cursor]
        buf = np.empty(shape, dtype=dtype)
        pool.append(buf)
        self.pool_misses += 1
        if obs.enabled():
            obs.count("train_ws_pool_misses_total", scope=scope)
        return buf

    def end_pass(self) -> None:
        """Recycle all pass-scoped buffers (after one rate's backward)."""
        for key in self._cursor:
            if key[0] == "pass":
                self._cursor[key] = 0

    def begin_step(self, pinned_input: np.ndarray | None = None) -> None:
        """Start an Algorithm-1 step; ``pinned_input`` is the (unsliced)
        batch input whose im2col columns may be shared across rates."""
        self._pinned = pinned_input
        self._col_cache.clear()

    def end_step(self) -> None:
        """Recycle everything: pass and step buffers, plus the col cache."""
        for key in self._cursor:
            self._cursor[key] = 0
        self._pinned = None
        self._col_cache.clear()
        if obs.enabled():
            obs.gauge("train_ws_bytes", float(self.nbytes()))

    def nbytes(self) -> int:
        """Total bytes resident across all pools."""
        return sum(buf.nbytes for pool in self._pools.values()
                   for buf in pool)

    def stats(self) -> dict[str, int]:
        return {
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "col_reuses": self.col_reuses,
            "bytes": self.nbytes(),
        }

    def __repr__(self) -> str:
        return (f"WorkspaceArena(bytes={self.nbytes()}, "
                f"hits={self.pool_hits}, misses={self.pool_misses}, "
                f"col_reuses={self.col_reuses})")

    # -- conv kernels ----------------------------------------------------
    def im2col(self, x: np.ndarray, kh: int, kw: int,
               stride: tuple[int, int], padding: tuple[int, int]
               ) -> tuple[np.ndarray, tuple[int, int]]:
        """Pooled mirror of :func:`repro.tensor.ops._im2col`.

        Produces bitwise-identical columns ``(B, C*kh*kw, Hout*Wout)``;
        when ``x`` is the pinned step input, the columns are computed
        once per step and shared across slice rates.
        """
        pinned = x is self._pinned
        key = (x.shape, kh, kw, stride, padding)
        if pinned:
            cached = self._col_cache.get(key)
            if cached is not None:
                self.col_reuses += 1
                if obs.enabled():
                    obs.count("train_ws_col_reuses_total")
                return cached
        batch, channels, height, width = x.shape
        ph, pw = padding
        sh, sw = stride
        if ph or pw:
            padded = self.acquire(
                (batch, channels, height + 2 * ph, width + 2 * pw), x.dtype)
            # Zero only the border strips; the interior is overwritten by
            # the copy, so a full fill(0) would be a wasted memory pass.
            if ph:
                padded[:, :, :ph, :] = 0
                padded[:, :, ph + height:, :] = 0
            if pw:
                padded[:, :, ph:ph + height, :pw] = 0
                padded[:, :, ph:ph + height, pw + width:] = 0
            padded[:, :, ph:ph + height, pw:pw + width] = x
        else:
            padded = x
        h_out = (padded.shape[2] - kh) // sh + 1
        w_out = (padded.shape[3] - kw) // sw + 1
        if h_out <= 0 or w_out <= 0:
            raise ShapeError(
                f"conv output would be empty for input {x.shape}, "
                f"kernel ({kh},{kw})")
        scope = "step" if pinned else "pass"
        cols = self.acquire(
            (batch, channels * kh * kw, h_out * w_out), x.dtype, scope)
        unfold_windows(padded, kh, kw, stride, cols)
        result = (cols, (h_out, w_out))
        if pinned:
            self._col_cache[key] = result
        return result

    def col2im(self, cols: np.ndarray,
               x_shape: tuple[int, int, int, int], kh: int, kw: int,
               stride: tuple[int, int], padding: tuple[int, int],
               out_hw: tuple[int, int]) -> np.ndarray:
        """Pooled mirror of :func:`repro.tensor.ops._col2im`.

        The returned gradient image may be a view of a pass-scoped
        buffer; it is only valid until the next :meth:`end_pass`.
        """
        batch, channels, height, width = x_shape
        ph, pw = padding
        sh, sw = stride
        h_out, w_out = out_hw
        padded = self.acquire(
            (batch, channels, height + 2 * ph, width + 2 * pw), cols.dtype)
        cols = cols.reshape(batch, channels, kh, kw, h_out, w_out)
        if sh == 1 and sw == 1:
            # Stride 1: the first tap's slab covers the whole top-left
            # region, so it can *assign* instead of accumulate, and only
            # the right/bottom margins it misses need explicit zeros —
            # two cheap border writes instead of a full zeroing pass.
            np.copyto(padded[:, :, :h_out, :w_out], cols[:, :, 0, 0])
            if kh > 1:
                padded[:, :, h_out:, :] = 0
            if kw > 1:
                padded[:, :, :h_out, w_out:] = 0
            for i in range(kh):
                for j in range(kw):
                    if i == 0 and j == 0:
                        continue
                    padded[:, :, i:i + h_out, j:j + w_out] += cols[:, :, i, j]
        else:
            padded.fill(0)
            for i in range(kh):
                i_end = i + sh * h_out
                for j in range(kw):
                    j_end = j + sw * w_out
                    padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j]
        if ph or pw:
            return padded[:, :, ph:ph + height, pw:pw + width]
        return padded
