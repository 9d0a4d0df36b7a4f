"""Resumable compiled plans: run narrow, retain intermediates, widen.

A :class:`~repro.slicing.plans.InferencePlan` answers once at one
profile.  A :class:`ResumablePlan` answers at a *narrow* profile and
keeps what the paper's Sec. 3.5 block decomposition needs to upgrade
that answer later: per slice point it retains the layer input, the
pre-activation tensor (the raw ``x W^T`` product, before bias/rescale),
and the post-activation output.  :meth:`ResumablePlan.widen` then moves
the plan to a wider (pointwise-nested, Eq. 2) profile by computing only
the cross-term blocks ``B xb``, ``C xa`` and ``D xb`` per layer —
falling back to recompute-from-intermediates where reuse cannot be
justified — instead of re-running the model from scratch.

Two widening modes exist because the paper's reuse is an approximation:

* **exact mode** (the default): the widened output is *bitwise* equal to
  compiling and running a fresh :class:`ResumablePlan` at the target
  profile.  BLAS GEMMs cannot deliver that guarantee — kernel selection
  (and hence the K-accumulation order of an output element) varies with
  the output shape, so the same columns computed inside a narrower or
  wider product can differ in the last bit.  The resumable path
  therefore computes its dense products with :func:`_cgemm`, a
  canonical fixed-order accumulation whose every output element depends
  only on its own input row and weight row — making column extension
  *and* row subsetting reproducible by construction.  Exact mode then
  reuses cached work only where a step's input is bitwise unchanged and
  the step merely gained output columns; everything downstream of the
  first changed activation is recomputed from the retained
  intermediates with the same canonical arithmetic a from-scratch
  resumable plan uses.
* **approximate mode** (``exact=False``): the paper's Sec. 3.5 rule —
  keep the cached base product ``ya`` even though the widened input
  would perturb it, and spend only the analytic
  ``batch * (wb_out*wb_in - wa_out*wa_in)`` multiply-adds per dense
  layer.  The serving cascade defaults to exact mode (bit-identical
  escalations are what make its traces deterministic); approximate
  mode is the cheaper paper-faithful option for callers that accept
  tolerance-level drift.

Execution mirrors the live sliced forward's operation order (matmul,
then bias, then the *unfolded* ``full_in/active_in`` rescale, then the
activation), which keeps the from-scratch resumable pass numerically
aligned with :func:`~repro.slicing.plans.compile_plan` (equal to float
tolerance: the compiled plan folds the rescale into its weights and
runs BLAS, so not bitwise).  Recurrent cells keep the rescale unfolded
for the same reason, so their cached per-gate input projections stay
reusable across hidden widths.

The node list and the execution loop come from the model's family
declaration (:mod:`repro.slicing.families`), the same one
:func:`~repro.slicing.plans.compile_plan` reads, so every family that
compiles also resumes.

Plans validate against parameter mutation exactly like
:class:`~repro.slicing.plans.InferencePlan`: any ``Parameter`` version
bump after construction makes :meth:`run`/:meth:`widen` raise
:class:`~repro.errors.PlanError` rather than resume from stale
intermediates.

FLOPs accounting: every ``run``/``widen`` records per-node spent vs
from-scratch multiply-adds (:attr:`last_report`), and
:meth:`flops_saved` totals the reuse over the plan's lifetime — the
number the cascade's ``cascade_flops_saved_total`` counter exports.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PlanError, SliceRateError
from ..nn.attention import causal_mask, softmax_eval
from ..nn.embedding import Embedding
from ..nn.norm import layer_norm_eval
from .families import Op, family_of
from .layers import SlicedConv2d, SlicedGroupNorm, SlicedLinear
from .plans import (
    ConvStep,
    GlobalAvgPoolStep,
    GroupNormStep,
    _log_softmax,
    _recurrent_scale,
    _sigmoid,
    compile_layer,
)
from .profile import SliceProfile, as_profile, named_slice_points
from .recurrent import SlicedLSTM

__all__ = [
    "ResumablePlan",
    "compile_resumable",
    "pointwise_nested",
    "scratch_madds",
]


def _f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32)


def _cgemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Canonical ``x @ w.T`` for ``(M, K) x (N, K)`` float32 operands.

    Fixed left-to-right axpy accumulation, vectorized across the batch:
    ``out[:, j] = ((x[:, 0] * w[j, 0]) + x[:, 1] * w[j, 1]) + ...``.
    Every output element depends only on its own input row and weight
    row, so computing extra columns (N growth) or a row subset (M
    shrink) reproduces the remaining elements bit for bit — the
    property exact-mode widening and :meth:`ResumablePlan.subset` are
    built on, and one BLAS GEMMs do *not* provide (kernel choice, and
    with it the K summation order, varies with the output shape).
    Leading axes beyond the first are flattened into rows and restored.
    """
    if x.ndim != 2:
        flat = _cgemm(x.reshape(-1, x.shape[-1]), w)
        return flat.reshape(x.shape[:-1] + (w.shape[0],))
    out = np.empty((x.shape[0], w.shape[0]), dtype=np.float32)
    for j, row in enumerate(w):
        acc = x[:, 0] * row[0]
        for k in range(1, row.shape[0]):
            acc += x[:, k] * row[k]
        out[:, j] = acc
    return out


def _rows(x: np.ndarray) -> int:
    """Rows a dense product runs over: every axis but the feature axis."""
    return x.size // x.shape[-1]


def pointwise_nested(model, narrow, wide) -> bool:
    """True if ``narrow`` <= ``wide`` at every slice point of ``model``.

    This is the Eq. 2 prefix-nesting condition under which widening is
    well defined: every layer's active prefix under ``narrow`` must be a
    prefix of its active prefix under ``wide``.  Grouped slice points
    (attention heads, group norms) compare after snapping to their group
    grid: two rates that round to the same head count activate the same
    prefix, so they nest even when the raw rates are ordered the other
    way.
    """
    from .profile import slice_granularity, snap_rate

    narrow, wide = as_profile(narrow), as_profile(wide)
    eps = 1e-12
    if narrow.rate_for(None) > wide.rate_for(None) + eps:
        return False
    granularity = slice_granularity(model)
    for name, _ in named_slice_points(model):
        low, high = narrow.rate_for(name), wide.rate_for(name)
        groups = granularity.get(name, 1)
        if groups > 1:
            if snap_rate(low, groups) > snap_rate(high, groups):
                return False
        elif low > high + eps:
            return False
    return True


# ----------------------------------------------------------------------
# Nodes: stateful resumable steps
# ----------------------------------------------------------------------
class _Node:
    """One resumable step; holds the retained intermediates after a run.

    ``run`` executes from scratch at a profile; ``widen`` moves the
    cached state to a wider profile.  Both return
    ``(y, changed, spent, full)`` where ``changed`` says whether the
    output *prefix values* differ from the cached ones (width growth is
    visible to the next node through the array shape), ``spent`` is the
    multiply-adds actually executed and ``full`` the from-scratch cost
    of this node at the target profile.
    """

    name = "step"
    #: attribute names of retained ndarrays, row-sliceable on axis 0
    #: (overridden by sequence nodes whose batch axis differs).
    _cached = ()

    def run(self, x, profile):
        raise NotImplementedError

    def widen(self, x, profile, changed_in, exact):
        raise NotImplementedError

    def take_rows(self, rows) -> None:
        """Restrict the retained intermediates to ``rows`` (batch axis)."""
        for attr in self._cached:
            value = getattr(self, attr, None)
            if value is not None:
                setattr(self, attr, value[rows])


class _LinearNode(_Node):
    """A :class:`SlicedLinear` with retained input/raw/output tensors."""

    _cached = ("x", "raw", "y")

    def __init__(self, layer: SlicedLinear, relu: bool = False):
        self.layer = layer
        self.relu = bool(relu)
        self.name = layer.slice_point
        self.x = self.raw = self.y = None
        self.in_w = self.out_w = 0

    # -- helpers ---------------------------------------------------------
    def _out_width(self, profile: SliceProfile) -> int:
        layer = self.layer
        if not layer.slice_output:
            return layer.out_features
        return layer.out_partition.width_for(
            profile.rate_for(layer.slice_point))

    def _scale(self, in_w: int) -> float:
        layer = self.layer
        if layer.rescale and layer.slice_input and in_w != layer.in_features:
            return layer.in_features / in_w
        return 1.0

    def _post(self, raw: np.ndarray, out_lo: int, out_hi: int,
              in_w: int) -> np.ndarray:
        """Bias + unfolded rescale + activation, live-forward op order."""
        layer = self.layer
        y = raw.copy()
        if layer.bias is not None:
            y += _f32(layer.bias.data[out_lo:out_hi])
        scale = self._scale(in_w)
        if scale != 1.0:
            y *= scale
        if self.relu:
            np.maximum(y, 0.0, out=y)
        return y

    # -- execution -------------------------------------------------------
    def run(self, x, profile):
        out_w = self._out_width(profile)
        in_w = x.shape[-1]
        raw = _cgemm(x, _f32(self.layer.weight.data[:out_w, :in_w]))
        y = self._post(raw, 0, out_w, in_w)
        self.x, self.raw, self.y = x, raw, y
        self.in_w, self.out_w = in_w, out_w
        full = _rows(x) * out_w * in_w
        return y, True, full, full

    def widen(self, x, profile, changed_in, exact):
        in_old, out_old = self.in_w, self.out_w
        in_new = x.shape[-1]
        out_new = self._out_width(profile)
        if in_new < in_old or out_new < out_old:
            raise SliceRateError(
                f"{self.name}: widen() target is narrower than the "
                f"cached profile ({in_new}x{out_new} < {in_old}x{out_old})")
        batch = _rows(x)
        full = batch * out_new * in_new
        weight = self.layer.weight.data
        clean = not changed_in and in_new == in_old

        if clean and out_new == out_old:
            # Untouched layer: the cached output is the answer.
            return self.y, False, 0, full
        if exact and clean:
            # Output-only growth on a bitwise-identical input: under the
            # canonical GEMM each output column is an independent
            # fixed-order accumulation, so the cached prefix extends
            # bitwise and only the new columns are computed.
            raw_new = _cgemm(x, _f32(weight[out_old:out_new, :in_new]))
            y_new = self._post(raw_new, out_old, out_new, in_new)
            self.raw = np.concatenate([self.raw, raw_new], axis=-1)
            self.y = np.concatenate([self.y, y_new], axis=-1)
            self.x, self.in_w, self.out_w = x, in_new, out_new
            spent = batch * (out_new - out_old) * in_new
            return self.y, False, spent, full
        if exact:
            # The input changed (values or width): recompute from the
            # intermediates with from-scratch arithmetic.
            y, _, spent, full = self.run(x, profile)
            return y, True, spent, full

        # Paper mode (Sec. 3.5): keep the cached base product ya and add
        # only the cross-term blocks B xb / C xa / D xb.
        x_a = x[..., :in_old]
        x_b = x[..., in_old:in_new]
        base = self.raw
        if in_new > in_old:
            base = base + _cgemm(x_b, _f32(weight[:out_old,
                                                  in_old:in_new]))
        if out_new > out_old:
            lower = _cgemm(x_a, _f32(weight[out_old:out_new, :in_old]))
            if in_new > in_old:
                lower = lower + _cgemm(
                    x_b, _f32(weight[out_old:out_new, in_old:in_new]))
            raw = np.concatenate([base, lower], axis=-1)
        else:
            raw = base if base is not self.raw else base.copy()
        y = self._post(raw, 0, out_new, in_new)
        self.x, self.raw, self.y = x, raw, y
        self.in_w, self.out_w = in_new, out_new
        spent = batch * (out_new * in_new - out_old * in_old)
        return y, True, spent, full


class _LSTMNode(_Node):
    """A sliced LSTM stack retaining per-cell input projections.

    The per-gate input projections ``X W_ih^T`` over the whole sequence
    are the only part of a recurrent layer that survives a width change
    bitwise: the hidden trajectory (and the rescale factor) depend on
    the hidden width, so the recurrence itself is always recomputed from
    the retained intermediates — this is the resume-or-recompute
    fallback the dense cross-term rule cannot cover.  Both widening
    modes share it.
    """

    _GATES = ("i", "f", "g", "o")

    def __init__(self, lstm: SlicedLSTM):
        self.lstm = lstm
        self.name = "lstm"
        # Per cell: {"x", "ip", "out", "in_w", "hidden"}.
        self.cells: list[dict] = [dict() for _ in lstm.cells]

    def _packed_ih(self, cell, lo: int, hi: int, in_w: int) -> np.ndarray:
        return _f32(np.concatenate([
            getattr(cell, f"w_ih_{g}").data[lo:hi, :in_w]
            for g in self._GATES]))

    def _input_projection(self, cell, x, lo: int, hi: int) -> np.ndarray:
        """``(T, B, 4*(hi-lo))`` raw per-gate input projections."""
        steps, batch, in_w = x.shape
        packed = self._packed_ih(cell, lo, hi, in_w)
        flat = _cgemm(x.reshape(steps * batch, in_w), packed)
        return flat.reshape(steps, batch, -1)

    @staticmethod
    def _graft(ip_old: np.ndarray, ip_new: np.ndarray, h_old: int,
               h_new: int) -> np.ndarray:
        """Interleave cached and freshly-extended per-gate blocks."""
        parts = []
        grown = h_new - h_old
        for g in range(4):
            parts.append(ip_old[..., g * h_old:(g + 1) * h_old])
            parts.append(ip_new[..., g * grown:(g + 1) * grown])
        return np.concatenate(parts, axis=-1)

    def _recur(self, cell, ip: np.ndarray, hidden: int,
               scale: float | None) -> np.ndarray:
        """Run the recurrence over cached input projections."""
        steps, batch = ip.shape[0], ip.shape[1]
        whh_t = _f32(np.concatenate([
            getattr(cell, f"w_hh_{g}").data[:hidden, :hidden]
            for g in self._GATES]).T)
        bias = _f32(np.concatenate([
            getattr(cell, f"bias_{g}").data[:hidden] for g in self._GATES]))
        h = np.zeros((batch, hidden), dtype=np.float32)
        c = np.zeros_like(h)
        out = np.empty((steps, batch, hidden), dtype=np.float32)
        for t in range(steps):
            pre = (ip[t] + h @ whh_t) + bias
            if scale is not None:
                pre = pre * scale
            i = _sigmoid(pre[:, :hidden])
            f = _sigmoid(pre[:, hidden:2 * hidden])
            g = np.tanh(pre[:, 2 * hidden:3 * hidden])
            o = _sigmoid(pre[:, 3 * hidden:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        return out

    def _run_cell(self, cell, state: dict, x, hidden: int
                  ) -> tuple[np.ndarray, int]:
        ip = self._input_projection(cell, x, 0, hidden)
        scale = self._scale_for(cell, x.shape[-1], hidden)
        out = self._recur(cell, ip, hidden, scale)
        state.update(x=x, ip=ip, out=out, in_w=x.shape[-1], hidden=hidden)
        steps, batch = x.shape[0], x.shape[1]
        cost = steps * batch * 4 * hidden * (x.shape[-1] + hidden)
        return out, cost

    @staticmethod
    def _scale_for(cell, in_w: int, hidden: int) -> float | None:
        scale = _recurrent_scale(cell, in_w, hidden)
        return None if scale == 1.0 else scale

    def _cell_cost(self, x_shape, in_w: int, hidden: int) -> int:
        steps, batch = x_shape[0], x_shape[1]
        return steps * batch * 4 * hidden * (in_w + hidden)

    def run(self, x, profile):
        total = 0
        for cell, state in zip(self.lstm.cells, self.cells):
            hidden = cell.partition.width_for(
                profile.rate_for(cell.slice_point))
            x, cost = self._run_cell(cell, state, x, hidden)
            total += cost
        return x, True, total, total

    def widen(self, x, profile, changed_in, exact):
        spent = full = 0
        changed = changed_in
        for cell, state in zip(self.lstm.cells, self.cells):
            hidden = cell.partition.width_for(
                profile.rate_for(cell.slice_point))
            h_old, in_old = state["hidden"], state["in_w"]
            in_new = x.shape[-1]
            cost = self._cell_cost(x.shape, in_new, hidden)
            full += cost
            clean = not changed and in_new == in_old
            if clean and hidden == h_old:
                x = state["out"]
                continue
            if clean:
                # Same input sequence, wider hidden state: extend the
                # cached per-gate projections by the new rows, then
                # replay the recurrence (the trajectory and the rescale
                # both depend on the hidden width, so it cannot be
                # resumed mid-sequence).
                ip_new = self._input_projection(cell, x, h_old, hidden)
                ip = self._graft(state["ip"], ip_new, h_old, hidden)
                scale = self._scale_for(cell, in_new, hidden)
                out = self._recur(cell, ip, hidden, scale)
                state.update(ip=ip, out=out, hidden=hidden)
                steps, batch = x.shape[0], x.shape[1]
                spent += steps * batch * 4 * (
                    (hidden - h_old) * in_new + hidden * hidden)
            else:
                # Input changed: full recompute from the new sequence.
                out, cost = self._run_cell(cell, state, x, hidden)
                spent += cost
            x = out
            changed = True
        return x, changed, spent, full

    def take_rows(self, rows) -> None:
        for state in self.cells:
            for key in ("x", "ip", "out"):
                state[key] = state[key][:, rows]


class _ConvNode(_Node):
    """A sliced convolution; reuse is output-channel extension only."""

    _cached = ("x", "y")

    def __init__(self, layer: SlicedConv2d):
        self.layer = layer
        self.name = layer.slice_point
        self.x = self.y = None
        self.in_w = self.out_w = 0

    def _step(self, lo: int, hi: int, in_w: int) -> ConvStep:
        layer = self.layer
        bias = None if layer.bias is None else layer.bias.data[lo:hi]
        return ConvStep(layer.weight.data[lo:hi, :in_w], bias,
                        stride=layer.stride, padding=layer.padding)

    def _channels(self, x, lo: int, hi: int, in_w: int) -> np.ndarray:
        """Canonical per-channel execution of output channels [lo, hi).

        Each output channel is one independent row of the im2col GEMM;
        computing channels one at a time makes the result of a channel
        independent of how many siblings run alongside it, so a later
        channel extension reproduces the cached block bit for bit
        (block-wise ConvStep calls would not: the GEMM kernel — and the
        contraction order — can change with the output width).
        """
        parts = [np.asarray(self._step(c, c + 1, in_w)(x)).copy()
                 for c in range(lo, hi)]
        return np.concatenate(parts, axis=1)

    def _full(self, x, out_w: int) -> int:
        kh, kw = self.layer.kernel_size
        p, s = int(self.layer.padding), int(self.layer.stride)
        h_out = (x.shape[2] + 2 * p - kh) // s + 1
        w_out = (x.shape[3] + 2 * p - kw) // s + 1
        return x.shape[0] * out_w * x.shape[1] * kh * kw * h_out * w_out

    def run(self, x, profile):
        rate = profile.rate_for(self.layer.slice_point)
        out_w = self.layer.active_out_channels(rate)
        in_w = x.shape[1]
        y = self._channels(x, 0, out_w, in_w)
        self.x, self.y = x, y
        self.in_w, self.out_w = in_w, out_w
        full = self._full(x, out_w)
        return y, True, full, full

    def widen(self, x, profile, changed_in, exact):
        rate = profile.rate_for(self.layer.slice_point)
        out_new = self.layer.active_out_channels(rate)
        in_new = x.shape[1]
        if in_new < self.in_w or out_new < self.out_w:
            raise SliceRateError(
                f"{self.name}: widen() target is narrower than cached")
        full = self._full(x, out_new)
        clean = not changed_in and in_new == self.in_w
        if clean and out_new == self.out_w:
            return self.y, False, 0, full
        if clean:
            # New output channels only, computed with the same canonical
            # per-channel arithmetic run() uses: bitwise extension.
            extra = self._channels(x, self.out_w, out_new, in_new)
            self.y = np.concatenate([self.y, extra], axis=1)
            spent = self._full(x, out_new - self.out_w)
            self.x, self.in_w, self.out_w = x, in_new, out_new
            return self.y, False, spent, full
        y, _, spent, full = self.run(x, profile)
        return y, True, spent, full


class _GroupNormNode(_Node):
    """Per-group normalization; groups are independent, cost is tiny.

    Recomputed whenever anything upstream moved (a norm is far cheaper
    than the convolutions around it); reused verbatim when the input is
    untouched.
    """

    _cached = ("x", "y")

    def __init__(self, layer: SlicedGroupNorm, relu: bool = False):
        self.layer = layer
        self.relu = bool(relu)
        self.name = "norm"
        self.x = self.y = None

    def _step(self, channels: int) -> GroupNormStep:
        layer = self.layer
        return GroupNormStep(layer.weight.data[:channels],
                             layer.bias.data[:channels],
                             layer.group_size, layer.eps, relu=self.relu)

    def run(self, x, profile):
        y = np.asarray(self._step(x.shape[1])(x))
        self.x, self.y = x, y
        return y, True, 0, 0

    def widen(self, x, profile, changed_in, exact):
        if not changed_in and self.x is not None \
                and x.shape == self.x.shape:
            return self.y, False, 0, 0
        y, _, _, _ = self.run(x, profile)
        return y, True, 0, 0


class _PoolNode(_Node):
    """Max/avg/global pooling; stateless apart from the cached output."""

    _cached = ("x", "y")

    def __init__(self, step, name: str):
        self.step = step
        self.name = name
        self.x = self.y = None

    def run(self, x, profile):
        y = np.asarray(self.step(x))
        self.x, self.y = x, y
        return y, True, 0, 0

    def widen(self, x, profile, changed_in, exact):
        if not changed_in and self.x is not None \
                and x.shape == self.x.shape:
            return self.y, False, 0, 0
        return self.run(x, profile)


class _LogSoftmaxNode(_Node):
    _cached = ("x", "y")
    name = "log_softmax"

    def __init__(self):
        self.x = self.y = None

    def run(self, x, profile):
        y = _log_softmax(x)
        self.x, self.y = x, y
        return y, True, 0, 0

    def widen(self, x, profile, changed_in, exact):
        if not changed_in and self.x is not None \
                and x.shape == self.x.shape:
            return self.y, False, 0, 0
        return self.run(x, profile)


class _EmbeddingNode(_Node):
    """Token embedding; a width controller widens by appending columns.

    Gathering rows of a column prefix equals the column prefix of the
    full gather, so column extension is bitwise by construction — no
    canonical GEMM needed.  An unsliced embedding never changes.
    """

    _cached = ("y",)

    def __init__(self, layer: Embedding):
        self.layer = layer
        self.name = getattr(layer, "slice_point", "embedding")
        self.tokens = None
        self.y = None
        self.width = 0

    def _width(self, profile: SliceProfile) -> int:
        return self.layer.active_width(
            profile.rate_for(getattr(self.layer, "slice_point", None)))

    def run(self, tokens, profile):
        idx = np.asarray(tokens)
        if idx.dtype.kind not in "iu":
            raise PlanError("embedding node expects integer token ids")
        width = self._width(profile)
        self.tokens = idx
        self.y = _f32(self.layer.weight.data[:, :width])[idx]
        self.width = width
        return self.y, True, 0, 0

    def widen(self, tokens, profile, changed_in, exact):
        width = self._width(profile)
        if width < self.width:
            raise SliceRateError(
                f"{self.name}: widen() target is narrower than cached")
        if width == self.width:
            return self.y, False, 0, 0
        extra = _f32(self.layer.weight.data[:, self.width:width])
        self.y = np.concatenate([self.y, extra[self.tokens]], axis=-1)
        self.width = width
        return self.y, False, 0, 0

    def take_rows(self, rows) -> None:
        self.tokens = self.tokens[:, rows]
        self.y = self.y[:, rows]


class _PosNode(_Node):
    """Learned positional add; elementwise, so prefix-preserving."""

    _cached = ("x", "y")
    name = "pos"

    def __init__(self, layer):
        self.layer = layer
        self.x = self.y = None

    def run(self, x, profile):
        d = x.shape[-1]
        t = x.shape[1] if self.layer.batch_first else x.shape[0]
        table = _f32(self.layer.weight.data[:t, :d])
        if not self.layer.batch_first:
            table = table.reshape(t, 1, d)
        y = x + table
        self.x, self.y = x, y
        return y, True, 0, 0

    def widen(self, x, profile, changed_in, exact):
        if not changed_in and self.x is not None and x.shape == self.x.shape:
            return self.y, False, 0, 0
        y, _, _, _ = self.run(x, profile)
        # The add is elementwise: growing the width leaves the cached
        # prefix columns bit-identical, so upstream cleanliness carries.
        return y, changed_in, 0, 0


class _LayerNormNode(_Node):
    """LayerNorm over the arriving width; stats couple every feature,
    so any width growth invalidates the cached output (cost ~0 anyway).
    """

    _cached = ("x", "y")
    name = "norm"

    def __init__(self, layer):
        self.layer = layer
        self.x = self.y = None

    def run(self, x, profile):
        d = x.shape[-1]
        y = layer_norm_eval(x, _f32(self.layer.weight.data[:d]),
                            _f32(self.layer.bias.data[:d]), self.layer.eps)
        self.x, self.y = x, y
        return y, True, 0, 0

    def widen(self, x, profile, changed_in, exact):
        if not changed_in and self.x is not None and x.shape == self.x.shape:
            return self.y, False, 0, 0
        y, _, _, _ = self.run(x, profile)
        return y, True, 0, 0


class _MeanPoolNode(_Node):
    """Sequence mean pool (encoder readout); recomputed when upstream
    moved — summation order may shift with the feature width, so width
    growth conservatively marks the output changed.
    """

    _cached = ("x", "y")
    name = "mean_pool"

    def __init__(self, axis: int = 1):
        self.axis = axis
        self.x = self.y = None

    def run(self, x, profile):
        count = x.shape[self.axis]
        y = x.sum(axis=self.axis) * (1.0 / count)
        self.x, self.y = x, y
        return y, True, 0, 0

    def widen(self, x, profile, changed_in, exact):
        if not changed_in and self.x is not None and x.shape == self.x.shape:
            return self.y, False, 0, 0
        y, _, _, _ = self.run(x, profile)
        return y, True, 0, 0


class _AttentionBlockNode(_Node):
    """Residual pre-norm attention: ``x + proj(attn(ln(x)))``.

    The reuse unit is the *head*: run() computes scores, softmax and
    context per ``(batch, head)`` 2-d slice with the canonical GEMM, so
    each head's result is independent of how many heads run beside it.
    Widening on a clean input then appends whole head blocks — the
    softmax stages cannot use the dense cross-term rule, so the new
    heads are recomputed per head (reported as ``"per-head recompute"``
    in ``last_report``).  The output projection's input columns grow
    with the heads, so exact mode recomputes it in full with the
    canonical GEMM while approximate mode keeps the cached base product
    and adds only the new heads' cross-term (the Sec. 3.5 rule).
    """

    _cached = ("xc", "hx_flat", "ctx", "raw", "y")

    def __init__(self, ln, attn):
        self.ln = ln
        self.attn = attn
        self.name = attn.slice_point
        self.xc = self.hx_flat = self.ctx = self.raw = self.y = None
        self.heads = self.d = 0
        self.last_note = None

    # -- helpers ---------------------------------------------------------
    def _active_heads(self, profile: SliceProfile) -> int:
        return self.attn.active_heads(
            profile.rate_for(self.attn.slice_point))

    def _full(self, b: int, t: int, d: int, heads: int) -> int:
        dk = self.attn.head_dim
        inner = heads * dk
        return b * t * 3 * inner * d + 2 * b * heads * t * t * dk \
            + b * t * d * inner

    def _head_qkv(self, hx_flat, head: int, d: int, b: int, t: int):
        """Head ``head``'s q, k, v as ``(b, t, d_k)`` arrays."""
        dk = self.attn.head_dim
        weight = self.attn.qkv_weight.data
        bias = self.attn.qkv_bias.data
        base = 3 * dk * head
        parts = []
        for j in range(3):
            lo, hi = base + j * dk, base + (j + 1) * dk
            raw = _cgemm(hx_flat, _f32(weight[lo:hi, :d]))
            parts.append((raw + _f32(bias[lo:hi])).reshape(b, t, dk))
        return parts

    def _head_ctx(self, q, k, v, mask, b: int, t: int) -> np.ndarray:
        dk = self.attn.head_dim
        scale = 1.0 / math.sqrt(dk)
        ctx = np.empty((b, t, dk), dtype=np.float32)
        for i in range(b):
            scores = _cgemm(q[i], k[i]) * scale
            if mask is not None:
                scores = scores + mask
            probs = softmax_eval(scores)
            ctx[i] = _cgemm(probs, np.ascontiguousarray(v[i].T))
        return ctx

    def _project(self, ctx: np.ndarray, d: int) -> np.ndarray:
        """Full output projection + residual from the context blocks."""
        b, heads, t, dk = ctx.shape
        flat = np.ascontiguousarray(
            np.moveaxis(ctx, 1, 2)).reshape(b * t, heads * dk)
        self.raw = _cgemm(flat, _f32(self.attn.proj_weight.data[:d,
                                                                :heads * dk]))
        out = self.raw + _f32(self.attn.proj_bias.data[:d])
        return self.xc + out.reshape(b, t, d)

    def _layout(self, y: np.ndarray) -> np.ndarray:
        if self.attn.batch_first:
            return y
        return np.ascontiguousarray(np.swapaxes(y, 0, 1))

    # -- execution -------------------------------------------------------
    def run(self, x, profile):
        self.last_note = None
        attn = self.attn
        heads = self._active_heads(profile)
        xc = x if attn.batch_first \
            else np.ascontiguousarray(np.swapaxes(x, 0, 1))
        b, t, d = xc.shape
        hx = layer_norm_eval(xc, _f32(self.ln.weight.data[:d]),
                             _f32(self.ln.bias.data[:d]), self.ln.eps)
        self.xc = xc
        self.hx_flat = _f32(hx.reshape(b * t, d))
        mask = causal_mask(t) if attn.causal else None
        ctx = np.empty((b, heads, t, attn.head_dim), dtype=np.float32)
        for h in range(heads):
            q, k, v = self._head_qkv(self.hx_flat, h, d, b, t)
            ctx[:, h] = self._head_ctx(q, k, v, mask, b, t)
        self.ctx = ctx
        y = self._layout(self._project(ctx, d))
        self.y = y
        self.heads, self.d = heads, d
        full = self._full(b, t, d, heads)
        return y, True, full, full

    def widen(self, x, profile, changed_in, exact):
        self.last_note = None
        attn = self.attn
        dk = attn.head_dim
        heads_new = self._active_heads(profile)
        d_new = x.shape[-1]
        if heads_new < self.heads or d_new < self.d:
            raise SliceRateError(
                f"{self.name}: widen() target is narrower than cached")
        b, _, t, _ = self.ctx.shape
        full = self._full(b, t, d_new, heads_new)
        clean = not changed_in and d_new == self.d
        if clean and heads_new == self.heads:
            return self.y, False, 0, full
        if clean:
            grown = heads_new - self.heads
            mask = causal_mask(t) if attn.causal else None
            extra = np.empty((b, grown, t, dk), dtype=np.float32)
            for h in range(self.heads, heads_new):
                q, k, v = self._head_qkv(self.hx_flat, h, d_new, b, t)
                extra[:, h - self.heads] = self._head_ctx(q, k, v, mask, b, t)
            ctx = np.concatenate([self.ctx, extra], axis=1)
            spent = b * t * 3 * grown * dk * d_new \
                + 2 * b * grown * t * t * dk
            if exact:
                # proj input columns grew: canonical full recompute keeps
                # the guarantee (every column's accumulation is fixed).
                y = self._layout(self._project(ctx, d_new))
                spent += b * t * d_new * heads_new * dk
            else:
                flat = np.ascontiguousarray(
                    np.moveaxis(extra, 1, 2)).reshape(b * t, grown * dk)
                self.raw = self.raw + _cgemm(
                    flat, _f32(attn.proj_weight.data[
                        :d_new, self.heads * dk:heads_new * dk]))
                out = self.raw + _f32(attn.proj_bias.data[:d_new])
                y = self._layout(self.xc + out.reshape(b, t, d_new))
                spent += b * t * d_new * grown * dk
            self.ctx, self.y = ctx, y
            self.heads = heads_new
            self.last_note = "per-head recompute"
            return y, True, spent, full
        # Residual width or input values changed: the LayerNorm stats
        # moved, so nothing cached survives — recompute from scratch.
        y, _, spent, full = self.run(x, profile)
        self.last_note = "full recompute"
        return y, True, spent, full


class _FFNBlockNode(_Node):
    """Residual pre-norm FFN: ``x + fc2(relu(fc1(ln(x))))``.

    Clean-input widening appends FFN columns: fc1's new output columns
    are independent canonical accumulations (bitwise extension), the
    relu is elementwise, and fc2 — whose *input* columns grew — is
    recomputed in full under exact mode or cross-termed under the
    paper's approximate rule.
    """

    _cached = ("x", "hx_flat", "hidden", "raw", "y")

    def __init__(self, ln, fc1: SlicedLinear, fc2: SlicedLinear):
        self.ln = ln
        self.fc1 = fc1
        self.fc2 = fc2
        self.name = fc1.slice_point
        self.x = self.hx_flat = self.hidden = self.raw = self.y = None
        self.d = self.f = 0

    def _widths(self, profile: SliceProfile, d: int) -> int:
        ffn = self.fc1.out_partition.width_for(
            profile.rate_for(self.fc1.slice_point))
        fc2_out = self.fc2.out_partition.width_for(
            profile.rate_for(self.fc2.slice_point))
        if fc2_out != d:
            raise PlanError(
                f"profile gives fc2 width {fc2_out} but the residual "
                f"stream is {d} wide; fc2 must stay at the default rate")
        return ffn

    def _hidden_cols(self, lo: int, hi: int, d: int) -> np.ndarray:
        raw = _cgemm(self.hx_flat, _f32(self.fc1.weight.data[lo:hi, :d]))
        return np.maximum(raw + _f32(self.fc1.bias.data[lo:hi]), 0.0)

    def _finish(self, hidden: np.ndarray, raw: np.ndarray, d: int,
                shape) -> np.ndarray:
        out = raw + _f32(self.fc2.bias.data[:d])
        return self.x + out.reshape(shape)

    def run(self, x, profile):
        d = x.shape[-1]
        ffn = self._widths(profile, d)
        hx = layer_norm_eval(x, _f32(self.ln.weight.data[:d]),
                             _f32(self.ln.bias.data[:d]), self.ln.eps)
        self.x = x
        self.hx_flat = _f32(hx.reshape(-1, d))
        self.hidden = self._hidden_cols(0, ffn, d)
        self.raw = _cgemm(self.hidden, _f32(self.fc2.weight.data[:d, :ffn]))
        y = self._finish(self.hidden, self.raw, d, x.shape)
        self.y = y
        self.d, self.f = d, ffn
        rows = self.hx_flat.shape[0]
        full = 2 * rows * ffn * d
        return y, True, full, full

    def widen(self, x, profile, changed_in, exact):
        d_new = x.shape[-1]
        ffn_new = self._widths(profile, d_new)
        if ffn_new < self.f or d_new < self.d:
            raise SliceRateError(
                f"{self.name}: widen() target is narrower than cached")
        rows = int(np.prod(x.shape[:-1]))
        full = 2 * rows * ffn_new * d_new
        clean = not changed_in and d_new == self.d
        if clean and ffn_new == self.f:
            return self.y, False, 0, full
        if clean:
            grown = self._hidden_cols(self.f, ffn_new, d_new)
            hidden = np.concatenate([self.hidden, grown], axis=-1)
            spent = rows * (ffn_new - self.f) * d_new
            if exact:
                raw = _cgemm(hidden, _f32(self.fc2.weight.data[:d_new,
                                                               :ffn_new]))
                spent += rows * d_new * ffn_new
            else:
                raw = self.raw + _cgemm(
                    grown, _f32(self.fc2.weight.data[:d_new,
                                                     self.f:ffn_new]))
                spent += rows * d_new * (ffn_new - self.f)
            self.hidden, self.raw = hidden, raw
            y = self._finish(hidden, raw, d_new, x.shape)
            self.y, self.f = y, ffn_new
            return y, True, spent, full
        y, _, spent, full = self.run(x, profile)
        return y, True, spent, full


# ----------------------------------------------------------------------
# Nodes from the family declaration
# ----------------------------------------------------------------------
def _node(op: Op) -> _Node:
    """The resumable node for one declared op."""
    layer = op.layer
    if op.kind in ("linear", "dense"):
        return _LinearNode(layer, relu=op.relu)
    if op.kind == "conv":
        return _ConvNode(layer)
    if op.kind == "norm":
        if not isinstance(layer, SlicedGroupNorm):
            raise PlanError(
                f"no resumable compiler for norm {type(layer).__name__}")
        return _GroupNormNode(layer, relu=op.relu)
    if op.kind == "pool":
        return _PoolNode(compile_layer(layer, 1.0), "pool")
    if op.kind == "global_pool":
        return _PoolNode(GlobalAvgPoolStep(), "global_pool")
    if op.kind == "embedding":
        return _EmbeddingNode(layer)
    if op.kind == "lstm":
        return _LSTMNode(layer)
    if op.kind == "positional":
        return _PosNode(layer)
    if op.kind == "attention":
        return _AttentionBlockNode(layer.ln1, layer.attn)
    if op.kind == "ffn":
        return _FFNBlockNode(layer.ln2, layer.fc1, layer.fc2)
    if op.kind == "layernorm":
        return _LayerNormNode(layer)
    if op.kind == "mean_pool":
        return _MeanPoolNode(axis=1)
    if op.kind == "log_softmax":
        return _LogSoftmaxNode()
    raise PlanError(f"no resumable node for op kind {op.kind!r}")


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
class ResumablePlan:
    """A compiled plan that retains intermediates and widens in place.

    Parameters
    ----------
    model:
        A sliced model with a family declaration (MLP, NNLM, SlicedVGG,
        TransformerEncoder, TransformerLM).
    profile:
        The starting (narrow) slice profile; scalar rates coerce.
    exact:
        Default widening mode.  ``True`` guarantees bitwise equality
        with a from-scratch plan at the target profile; ``False`` uses
        the paper's approximate cross-term reuse (cheaper, the serving
        default for cascades).

    Typical lifecycle::

        plan = ResumablePlan(model, 0.25, exact=False)
        logits = plan.run(batch)            # narrow answer
        logits = plan.widen(0.5)            # upgraded answer, cross-terms only
        saved = plan.flops_saved()          # reuse accounting
    """

    def __init__(self, model, profile, exact: bool = True):
        self.family = family_of(model)
        if self.family is None:
            raise PlanError(
                f"no resumable compiler for model {type(model).__name__}")
        self.model = model
        self.profile = as_profile(profile)
        self.exact = bool(exact)
        self.nodes = self._build_nodes()
        self._sources = [(p, p.version) for p in model.parameters()]
        self._inputs = None
        self._output = None
        self.history: list[SliceProfile] = []
        self.spent_madds = 0
        self.scratch_madds = 0
        self.last_report: list[dict] = []

    # -- staleness -------------------------------------------------------
    def is_valid(self) -> bool:
        """True while no parameter mutated since construction."""
        current = self.model.parameters()
        if len(current) != len(self._sources):
            return False
        return all(param is source and param.version == version
                   for param, (source, version)
                   in zip(current, self._sources))

    def _check_valid(self, what: str) -> None:
        if not self.is_valid():
            raise PlanError(
                f"cannot {what}: the model's parameters mutated after this "
                f"ResumablePlan was compiled; retained intermediates are "
                f"stale — rebuild the plan")

    # -- execution -------------------------------------------------------
    def run(self, inputs) -> np.ndarray:
        """Execute from scratch at the starting profile; retain state."""
        self._check_valid("run")
        x = np.asarray(inputs)
        if x.dtype.kind not in "iu":
            x = _f32(x)
        self._inputs = x
        out, report = self._execute(x, self.profile, from_scratch=True)
        self.history = [self.profile]
        self._tally(report)
        self._output = out
        return out

    def widen(self, to_profile, exact: bool | None = None) -> np.ndarray:
        """Move the plan to ``to_profile``, reusing retained work."""
        self._check_valid("widen")
        if self._inputs is None:
            raise PlanError("widen() before run(): nothing to resume")
        target = as_profile(to_profile)
        if not pointwise_nested(self.model, self.profile, target):
            raise SliceRateError(
                f"widen() target {target!r} is not pointwise >= the "
                f"current profile {self.profile!r}")
        exact = self.exact if exact is None else bool(exact)
        out, report = self._execute(self._inputs, target,
                                    from_scratch=False, exact=exact)
        self.profile = target
        self.history.append(target)
        self._tally(report)
        self._output = out
        return out

    @property
    def output(self) -> np.ndarray | None:
        """The most recent answer (None before the first run)."""
        return self._output

    # -- accounting ------------------------------------------------------
    def flops_saved(self) -> int:
        """Multiply-adds avoided versus from-scratch execution so far."""
        return self.scratch_madds - self.spent_madds

    def _tally(self, report: list[dict]) -> None:
        self.last_report = report
        self.spent_madds += sum(r["spent"] for r in report)
        self.scratch_madds += sum(r["full"] for r in report)

    # -- row restriction -------------------------------------------------
    def subset(self, rows) -> "ResumablePlan":
        """A new plan whose retained state covers only ``rows``.

        Under the canonical GEMM every output element depends only on
        its own input row, so widening the subset gives exactly the
        rows the full-batch widen would — this is how the cascade
        escalates only the low-margin requests without recomputing
        their narrow pass.
        """
        if self._inputs is None:
            raise PlanError("subset() before run(): nothing to restrict")
        if not self.family.row_subset:
            raise PlanError(
                "subset() is not supported for sequence and transformer "
                "models: their decoders flatten time and batch together "
                "(and attention mixes every position)")
        rows = np.asarray(rows)
        clone = ResumablePlan.__new__(ResumablePlan)
        clone.model = self.model
        clone.profile = self.profile
        clone.exact = self.exact
        clone.family = self.family
        clone._sources = self._sources
        clone.nodes = self._build_nodes()
        for mine, theirs in zip(self.nodes, clone.nodes):
            theirs.__dict__.update({
                k: v for k, v in mine.__dict__.items()
                if k not in ("layer", "lstm", "step")})
            theirs.take_rows(rows)
        clone._inputs = self._inputs[rows]
        clone._output = None if self._output is None \
            else self._output[rows]
        clone.history = list(self.history)
        clone.spent_madds = 0
        clone.scratch_madds = 0
        clone.last_report = []
        return clone

    # -- internals -------------------------------------------------------
    def _build_nodes(self) -> list[_Node]:
        return [_node(op) for op in self.family.ops(self.model)]

    def _execute(self, x, profile: SliceProfile, from_scratch: bool,
                 exact: bool = True):
        report: list[dict] = []
        changed = False

        def apply(node, value):
            nonlocal changed
            if from_scratch:
                out, changed, spent, full = node.run(value, profile)
            else:
                out, changed, spent, full = node.widen(value, profile,
                                                       changed, exact)
            entry = {"name": node.name, "spent": spent, "full": full,
                     "saved": full - spent, "reused": not changed}
            note = getattr(node, "last_note", None)
            if note:
                entry["note"] = note
            report.append(entry)
            return out

        return self.family.execute(self.model, self.nodes, x, apply), report

    def __repr__(self) -> str:
        return (f"ResumablePlan({type(self.model).__name__}, "
                f"profile={self.profile.label()}, "
                f"exact={self.exact}, widens={max(len(self.history) - 1, 0)})")


def compile_resumable(model, profile, exact: bool = True) -> ResumablePlan:
    """Build a :class:`ResumablePlan` (mirrors :func:`compile_plan`)."""
    return ResumablePlan(model, profile, exact=exact)


def scratch_madds(model, profile, batch: int = 1) -> int:
    """Analytic from-scratch multiply-adds of one pass at ``profile``.

    Counts the GEMM-shaped work (dense and recurrent projections,
    convolution contractions) the resumable plan accounts — the same
    units :meth:`ResumablePlan.flops_saved` reports, so cascade cost
    models and the serving-time FLOPs fractions agree with the measured
    counters.  Supported for the dense models (MLP); sequence and conv
    models derive their cost from an executed plan's report instead.
    """
    from ..models.mlp import MLP

    profile = as_profile(profile)
    if not isinstance(model, MLP):
        raise PlanError(
            f"scratch_madds supports MLP models, got {type(model).__name__}")
    total = 0
    width = model.in_features
    for layer in list(model.layers) + [model.head]:
        rate = profile.rate_for(layer.slice_point)
        out_w = layer.out_partition.width_for(rate) if layer.slice_output \
            else layer.out_features
        total += batch * out_w * width
        width = out_w
    return total
