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
  *and* row subsetting reproducible by construction.  The kernel is
  vectorized over rows and columns and its Python loop runs over K
  only (one ``(M, N)`` add per k); it is still well behind a BLAS GEMM,
  which is the price exact mode pays for reproducibility.  Exact mode then
  reuses cached work only where a step's input is bitwise unchanged and
  the step merely gained output columns; everything downstream of the
  first changed activation is recomputed from the retained
  intermediates with the same canonical arithmetic a from-scratch
  resumable pass uses.
* **approximate mode** (``exact=False``): the paper's Sec. 3.5 rule —
  keep the cached base product ``ya`` even though the widened input
  would perturb it, and spend only the analytic
  ``batch * (wb_out*wb_in - wa_out*wa_in)`` multiply-adds per dense
  layer.  The cascade's incremental escalation defaults to exact mode
  (it is the bitwise oracle; the served default recomputes escalated
  rows on compiled BLAS plans instead); approximate mode is the cheaper
  paper-faithful option for callers that accept tolerance-level drift.

The operands come from compiled plans.  By Eq. 2 a narrow pass and its
widening read prefixes of the same weights, so the plan
:func:`~repro.slicing.plans.compile_plan` builds at a profile already
states every width, weight and bias prefix, rescale factor, head count
and LSTM gate packing a resumable node needs.  A :class:`ResumablePlan`
compiles one at its starting profile and one at each ``widen`` target,
and each node reads the old and the target step; no node resolves a
profile against a layer.  Only the op kinds with a Sec. 3.5 reuse rule
have a node class of their own (dense, conv, LSTM, attention and FFN);
every other op runs its compiled step through the generic :class:`_Node`.
A residual block is one :class:`_ResidualNode` over the nodes of its
branches.

Execution mirrors the live sliced forward's operation order (matmul,
then bias, then the *unfolded* ``full_in/active_in`` rescale, then the
activation), which keeps the from-scratch resumable pass numerically
aligned with the compiled plan (equal to float tolerance: the compiled
plan folds the rescale into its weights and runs BLAS, so not bitwise).
Recurrent cells keep the rescale unfolded for the same reason, so their
cached per-gate input projections stay reusable across hidden widths.

Plans validate against mutation through their compiled plan's
:meth:`~repro.slicing.plans.InferencePlan.is_valid`: any ``Parameter``
version bump or rebound running-statistics buffer after construction
makes :meth:`run`/:meth:`widen` raise :class:`~repro.errors.PlanError`
rather than resume from stale intermediates.

FLOPs accounting: every ``run``/``widen`` records per-node spent vs
from-scratch multiply-adds (:attr:`last_report`), and
:meth:`flops_saved` totals the reuse over the plan's lifetime — the
number the cascade's ``cascade_flops_saved_total`` counter exports.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from ..errors import ConfigError, PlanError, SliceRateError
from ..nn.attention import causal_mask, softmax_eval
from ..nn.norm import layer_norm_eval
from ..tensor.ops import _im2col, conv2d_cols
from .families import Op
from .plans import (
    AttentionBlockStep,
    ConvStep,
    DenseStep,
    FFNBlockStep,
    LinearStep,
    LSTMStackStep,
    PlanStep,
    ResidualStep,
    _f32,
    _sigmoid,
    compile_plan,
)
from .profile import SliceProfile, as_profile, named_slice_points

__all__ = [
    "ResumablePlan",
    "anytime_predict",
    "pointwise_nested",
    "scratch_madds",
]


#: Size of the per-chunk product temporary in :func:`_cgemm`, in bytes.
_CHUNK_BYTES = 1 << 20


def _k_first(a: np.ndarray) -> np.ndarray:
    """View of ``a`` with its last (contraction) axis moved to the front."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1)))


def _cgemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Canonical ``x @ w.T`` for ``(M, K) x (N, K)`` float32 operands.

    Every output element is its K float32 products summed left to
    right: ``out[i, j] = fl(...fl(fl(x[i,0]*w[j,0]) + fl(x[i,1]*w[j,1]))
    + ...)``.  Each element therefore depends only on its own input row
    and weight row, so computing extra columns (N growth) or a row
    subset (M shrink) reproduces the remaining elements bit for bit —
    the property exact-mode widening and :meth:`ResumablePlan.subset`
    are built on, and that BLAS GEMMs do *not* provide (kernel choice,
    and with it the K summation order, varies with the output shape).

    The loop runs over K only, in chunks: one broadcast multiply forms
    every ``(k, i, j)`` product of a chunk (sized so that temporary
    stays near ``_CHUNK_BYTES``), and the products are added into the
    ``(M, N)`` accumulator in increasing ``k``.  Operands that promote
    past float32 accumulate in the promoted dtype and are cast to
    float32 once at the end.

    With a 2-D ``w``, leading axes of ``x`` beyond the first are
    flattened into rows and restored.  Otherwise both operands carry
    the same leading batch axes, ``(..., M, K) x (..., N, K) ->
    (..., M, N)``, each batch entry an independent canonical product.
    """
    if w.ndim == 2 and x.ndim != 2:
        flat = _cgemm(x.reshape(-1, x.shape[-1]), w)
        return flat.reshape(x.shape[:-1] + (w.shape[0],))
    xk = _k_first(x)[..., None]                            # (K, ..., M, 1)
    wk = np.ascontiguousarray(_k_first(w))[..., None, :]   # (K, ..., 1, N)
    acc = xk[0] * wk[0]
    chunk = max(1, _CHUNK_BYTES // max(1, acc.nbytes))
    for lo in range(1, x.shape[-1], chunk):
        for product in xk[lo:lo + chunk] * wk[lo:lo + chunk]:
            acc += product
    return acc.astype(np.float32, copy=False)


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


def _narrower(name: str) -> SliceRateError:
    return SliceRateError(
        f"{name}: widen() target is narrower than the cached profile")


# ----------------------------------------------------------------------
# Nodes: compiled steps plus retained state
# ----------------------------------------------------------------------
class _Node:
    """One resumable step; also the node of every op without a reuse rule.

    ``run(step, x)`` executes the compiled ``step`` from scratch;
    ``widen(step, x, changed_in, exact)`` moves the retained state from
    the step of the previous run (``self.step``) to the target
    profile's ``step``.  Both return ``(y, changed, spent, full)``
    where ``changed`` says whether the output *prefix values* differ
    from the cached ones (width growth is visible to the next node
    through the array shape), ``spent`` is the multiply-adds actually
    executed and ``full`` the from-scratch cost at the target profile.

    This base class serves norms, pools, positional add, layer norm,
    mean pool, log-softmax and embeddings, none of which the Sec. 3.5
    cross-term rule covers and all of which are cheap next to the
    products around them (their cost is not counted).  It returns the
    cached output while the input is unchanged and the step emits the
    same width, and otherwise reruns the target step.
    """

    #: attribute names of retained ndarrays, row-sliceable on axis 0
    #: (:meth:`ResumablePlan.subset` only runs for row-subset families).
    _cached = ("x", "y")

    def __init__(self, op: Op):
        self.name = op.kind
        self.step = self.x = self.y = None

    def run(self, step: PlanStep, x):
        y = step(x)
        self.step, self.x, self.y = step, x, y
        return y, True, 0, 0

    def widen(self, step: PlanStep, x, changed_in, exact):
        if not changed_in and x.shape == self.x.shape \
                and step.out_width == self.step.out_width:
            self.step = step
            return self.y, False, 0, 0
        return self.run(step, x)

    def take_rows(self, rows) -> None:
        """Restrict the retained intermediates to ``rows`` (batch axis)."""
        for attr in self._cached:
            value = getattr(self, attr, None)
            if value is not None:
                setattr(self, attr, value[rows])


class _LinearNode(_Node):
    """A :class:`LinearStep`/:class:`DenseStep` retaining input/raw/output."""

    _cached = ("x", "raw", "y")

    def __init__(self, op: Op):
        super().__init__(op)
        self.name = op.layer.slice_point
        self.raw = None

    @staticmethod
    def _post(step, raw: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Bias + unfolded rescale + activation, live-forward op order."""
        y = raw.copy()
        if step.bias is not None:
            y += step.bias[lo:hi]
        if step.scale != 1.0:
            y *= step.scale
        if step.relu:
            np.maximum(y, 0.0, out=y)
        return y

    def run(self, step, x):
        raw = _cgemm(x, step.weight)
        y = self._post(step, raw, 0, step.out_width)
        self.step, self.x, self.raw, self.y = step, x, raw, y
        full = _rows(x) * step.weight.size
        return y, True, full, full

    def widen(self, step, x, changed_in, exact):
        out_old, in_old = self.step.weight.shape
        out_new, in_new = step.weight.shape
        if in_new < in_old or out_new < out_old:
            raise _narrower(self.name)
        batch = _rows(x)
        full = batch * step.weight.size
        clean = not changed_in and in_new == in_old

        if clean and out_new == out_old:
            # Untouched layer: the cached output is the answer.
            self.step = step
            return self.y, False, 0, full
        if exact and clean:
            # Output-only growth on a bitwise-identical input: under the
            # canonical GEMM each output column is an independent
            # fixed-order accumulation, so the cached prefix extends
            # bitwise and only the new columns are computed.
            raw_new = _cgemm(x, step.weight[out_old:])
            y_new = self._post(step, raw_new, out_old, out_new)
            self.raw = np.concatenate([self.raw, raw_new], axis=-1)
            self.y = np.concatenate([self.y, y_new], axis=-1)
            self.step, self.x = step, x
            spent = batch * (out_new - out_old) * in_new
            return self.y, False, spent, full
        if exact:
            # The input changed (values or width): recompute from the
            # intermediates with from-scratch arithmetic.
            y, _, spent, full = self.run(step, x)
            return y, True, spent, full

        # Paper mode (Sec. 3.5): keep the cached base product ya and add
        # only the cross-term blocks B xb / C xa / D xb.
        weight = step.weight
        x_a = x[..., :in_old]
        x_b = x[..., in_old:in_new]
        base = self.raw
        if in_new > in_old:
            base = base + _cgemm(x_b, weight[:out_old, in_old:])
        if out_new > out_old:
            lower = _cgemm(x_a, weight[out_old:, :in_old])
            if in_new > in_old:
                lower = lower + _cgemm(x_b, weight[out_old:, in_old:])
            raw = np.concatenate([base, lower], axis=-1)
        else:
            raw = base if base is not self.raw else base.copy()
        y = self._post(step, raw, 0, out_new)
        self.step, self.x, self.raw, self.y = step, x, raw, y
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
    modes share it.  Each cell step packs its gates as ``[i, f, g, o]``
    row blocks of ``hidden`` rows.
    """

    def __init__(self, op: Op):
        super().__init__(op)
        # Per cell: {"x", "ip", "out"}.
        self.cells: list[dict] = [dict() for _ in op.layer.cells]

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

    @staticmethod
    def _recur(cell, ip: np.ndarray) -> np.ndarray:
        """Run the recurrence over cached input projections."""
        steps, batch = ip.shape[0], ip.shape[1]
        hidden = cell.hidden
        whh_t = _f32(cell.weight_hh.T)
        h = np.zeros((batch, hidden), dtype=np.float32)
        c = np.zeros_like(h)
        out = np.empty((steps, batch, hidden), dtype=np.float32)
        for t in range(steps):
            pre = (ip[t] + h @ whh_t) + cell.bias
            if cell.scale != 1.0:
                pre = pre * cell.scale
            i = _sigmoid(pre[:, :hidden])
            f = _sigmoid(pre[:, hidden:2 * hidden])
            g = np.tanh(pre[:, 2 * hidden:3 * hidden])
            o = _sigmoid(pre[:, 3 * hidden:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        return out

    @staticmethod
    def _cost(x, cell) -> int:
        return _rows(x) * (cell.weight_ih.size + cell.weight_hh.size)

    def _run_cell(self, cell, state: dict, x) -> tuple[np.ndarray, int]:
        ip = _cgemm(x, cell.weight_ih)
        out = self._recur(cell, ip)
        state.update(x=x, ip=ip, out=out)
        return out, self._cost(x, cell)

    def run(self, step, x):
        total = 0
        for cell, state in zip(step.cells, self.cells):
            x, cost = self._run_cell(cell, state, x)
            total += cost
        self.step = step
        return x, True, total, total

    def widen(self, step, x, changed_in, exact):
        spent = full = 0
        changed = changed_in
        for old, cell, state in zip(self.step.cells, step.cells,
                                    self.cells):
            h_old, hidden = old.hidden, cell.hidden
            full += self._cost(x, cell)
            clean = not changed and cell.in_width == old.in_width
            if clean and hidden == h_old:
                x = state["out"]
                continue
            if clean:
                # Same input sequence, wider hidden state: extend the
                # cached per-gate projections by the new rows, then
                # replay the recurrence (the trajectory and the rescale
                # both depend on the hidden width, so it cannot be
                # resumed mid-sequence).
                grown = cell.weight_ih.reshape(4, hidden, -1)[:, h_old:]
                ip_new = _cgemm(x, grown.reshape(-1, cell.in_width))
                ip = self._graft(state["ip"], ip_new, h_old, hidden)
                out = self._recur(cell, ip)
                state.update(ip=ip, out=out)
                spent += _rows(x) * 4 * (
                    (hidden - h_old) * cell.in_width + hidden * hidden)
            else:
                # Input changed: full recompute from the new sequence.
                out, cost = self._run_cell(cell, state, x)
                spent += cost
            x = out
            changed = True
        self.step = step
        return x, changed, spent, full


class _ConvNode(_Node):
    """A sliced convolution; reuse is output-channel extension only."""

    def __init__(self, op: Op):
        super().__init__(op)
        self.name = op.layer.slice_point

    @staticmethod
    def _channels(step: ConvStep, x, lo: int, hi: int) -> np.ndarray:
        """Canonical per-channel execution of output channels [lo, hi).

        The columns are gathered once; each output channel is then its
        own one-row product (:func:`~repro.tensor.ops.conv2d_cols`), so a
        channel's result is independent of how many siblings run
        alongside it and a later channel extension reproduces the cached
        block bit for bit (one block-wise product would not: the GEMM
        kernel — and the contraction order — can change with the output
        width).
        """
        kh, kw = step.kernel_size
        cols, out_hw = _im2col(x, kh, kw, (step.stride,) * 2,
                               (step.padding,) * 2)
        return np.concatenate([
            conv2d_cols(cols, step.w_mat[c:c + 1],
                        None if step.bias is None else step.bias[c:c + 1],
                        out_hw)
            for c in range(lo, hi)], axis=1)

    @staticmethod
    def _madds(step: ConvStep, x, out_w: int) -> int:
        kh, kw = step.kernel_size
        p, s = step.padding, step.stride
        h_out = (x.shape[2] + 2 * p - kh) // s + 1
        w_out = (x.shape[3] + 2 * p - kw) // s + 1
        return x.shape[0] * out_w * x.shape[1] * kh * kw * h_out * w_out

    def run(self, step, x):
        y = self._channels(step, x, 0, step.out_width)
        self.step, self.x, self.y = step, x, y
        full = self._madds(step, x, step.out_width)
        return y, True, full, full

    def widen(self, step, x, changed_in, exact):
        out_old, in_old = self.step.out_width, self.step.in_channels
        out_new, in_new = step.out_width, step.in_channels
        if in_new < in_old or out_new < out_old:
            raise _narrower(self.name)
        full = self._madds(step, x, out_new)
        clean = not changed_in and in_new == in_old
        if clean and out_new == out_old:
            self.step = step
            return self.y, False, 0, full
        if clean:
            # New output channels only, computed with the same canonical
            # per-channel arithmetic run() uses: bitwise extension.
            extra = self._channels(step, x, out_old, out_new)
            self.y = np.concatenate([self.y, extra], axis=1)
            spent = self._madds(step, x, out_new - out_old)
            self.step, self.x = step, x
            return self.y, False, spent, full
        y, _, spent, full = self.run(step, x)
        return y, True, spent, full


class _AttentionBlockNode(_Node):
    """Residual pre-norm attention: ``x + proj(attn(ln(x)))``.

    The reuse unit is the *head*: run() computes scores, softmax and
    context of every ``(batch, head)`` pair with batched canonical
    GEMMs, so each head's result is independent of how many heads run
    beside it.
    Widening on a clean input then appends whole head blocks — the
    softmax stages cannot use the dense cross-term rule, so the new
    heads are recomputed per head (reported as ``"per-head recompute"``
    in ``last_report``).  The output projection's input columns grow
    with the heads, so exact mode recomputes it in full with the
    canonical GEMM while approximate mode keeps the cached base product
    and adds only the new heads' cross-term (the Sec. 3.5 rule).
    """

    def __init__(self, op: Op):
        super().__init__(op)
        self.name = op.layer.attn.slice_point
        self.xc = self.hx_flat = self.ctx = self.raw = None
        self.last_note = None

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _madds(step: AttentionBlockStep, b: int, t: int) -> int:
        dk = step.head_dim
        d = step.ln_gamma.shape[0]
        inner = step.heads * dk
        return b * t * 3 * inner * d + 2 * b * step.heads * t * t * dk \
            + b * t * d * inner

    def _heads(self, step, lo: int, hi: int, b: int, t: int) -> np.ndarray:
        """Context blocks of heads [lo, hi) as ``(b, hi - lo, t, d_k)``.

        One canonical GEMM projects q, k and v of every head in the
        range (head-major packing: ``3 * d_k`` rows per head), and one
        batched canonical GEMM per stage runs every ``(sample, head)``
        pair: each element's accumulation is fixed, so a head's context
        does not depend on the heads or samples computed beside it.
        """
        dk = step.head_dim
        rows = slice(3 * dk * lo, 3 * dk * hi)
        qkv = _cgemm(self.hx_flat, step.qkv_weight[rows]) \
            + step.qkv_bias[rows]
        q, k, v = qkv.reshape(b, t, hi - lo, 3, dk).transpose(3, 0, 2, 1, 4)
        scores = _cgemm(q, k) * (1.0 / math.sqrt(dk))
        if step.causal:
            scores = scores + causal_mask(t)
        return _cgemm(softmax_eval(scores), np.swapaxes(v, -1, -2))

    def _project(self, step, ctx: np.ndarray) -> np.ndarray:
        """Full output projection + residual from the context blocks."""
        b, heads, t, dk = ctx.shape
        flat = np.ascontiguousarray(
            np.moveaxis(ctx, 1, 2)).reshape(b * t, heads * dk)
        self.raw = _cgemm(flat, step.proj_weight)
        out = self.raw + step.proj_bias
        return self.xc + out.reshape(b, t, -1)

    @staticmethod
    def _layout(step, y: np.ndarray) -> np.ndarray:
        if step.batch_first:
            return y
        return np.ascontiguousarray(np.swapaxes(y, 0, 1))

    # -- execution -------------------------------------------------------
    def run(self, step, x):
        self.last_note = None
        xc = x if step.batch_first \
            else np.ascontiguousarray(np.swapaxes(x, 0, 1))
        b, t, d = xc.shape
        hx = layer_norm_eval(xc, step.ln_gamma, step.ln_beta, step.eps)
        self.xc = xc
        self.hx_flat = _f32(hx.reshape(b * t, d))
        self.ctx = self._heads(step, 0, step.heads, b, t)
        self.y = self._layout(step, self._project(step, self.ctx))
        self.step = step
        full = self._madds(step, b, t)
        return self.y, True, full, full

    def widen(self, step, x, changed_in, exact):
        self.last_note = None
        old = self.step
        dk = step.head_dim
        d_old, d_new = old.ln_gamma.shape[0], step.ln_gamma.shape[0]
        if step.heads < old.heads or d_new < d_old:
            raise _narrower(self.name)
        b, _, t, _ = self.ctx.shape
        full = self._madds(step, b, t)
        clean = not changed_in and d_new == d_old
        if clean and step.heads == old.heads:
            self.step = step
            return self.y, False, 0, full
        if clean:
            grown = step.heads - old.heads
            extra = self._heads(step, old.heads, step.heads, b, t)
            ctx = np.concatenate([self.ctx, extra], axis=1)
            spent = b * t * 3 * grown * dk * d_new \
                + 2 * b * grown * t * t * dk
            if exact:
                # proj input columns grew: canonical full recompute keeps
                # the guarantee (every column's accumulation is fixed).
                y = self._layout(step, self._project(step, ctx))
                spent += b * t * d_new * step.heads * dk
            else:
                flat = np.ascontiguousarray(
                    np.moveaxis(extra, 1, 2)).reshape(b * t, grown * dk)
                self.raw = self.raw + _cgemm(
                    flat, step.proj_weight[:, old.heads * dk:])
                out = self.raw + step.proj_bias
                y = self._layout(step, self.xc + out.reshape(b, t, d_new))
                spent += b * t * d_new * grown * dk
            self.ctx, self.y, self.step = ctx, y, step
            self.last_note = "per-head recompute"
            return y, True, spent, full
        # Residual width or input values changed: the LayerNorm stats
        # moved, so nothing cached survives — recompute from scratch.
        y, _, spent, full = self.run(step, x)
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

    def __init__(self, op: Op):
        super().__init__(op)
        self.name = op.layer.fc1.slice_point
        self.hx_flat = self.hidden = self.raw = None

    def _hidden_cols(self, step, lo: int, hi: int) -> np.ndarray:
        raw = _cgemm(self.hx_flat, step.fc1_weight[lo:hi])
        return np.maximum(raw + step.fc1_bias[lo:hi], 0.0)

    def _finish(self, step, raw: np.ndarray) -> np.ndarray:
        out = raw + step.fc2_bias
        return self.x + out.reshape(self.x.shape)

    @staticmethod
    def _madds(step, x) -> int:
        return _rows(x) * (step.fc1_weight.size + step.fc2_weight.size)

    def run(self, step, x):
        hx = layer_norm_eval(x, step.ln_gamma, step.ln_beta, step.eps)
        self.x = x
        self.hx_flat = _f32(hx.reshape(-1, x.shape[-1]))
        self.hidden = self._hidden_cols(step, 0, step.fc1_weight.shape[0])
        self.raw = _cgemm(self.hidden, step.fc2_weight)
        self.y = self._finish(step, self.raw)
        self.step = step
        full = self._madds(step, x)
        return self.y, True, full, full

    def widen(self, step, x, changed_in, exact):
        ffn_old, d_old = self.step.fc1_weight.shape
        ffn_new, d_new = step.fc1_weight.shape
        if ffn_new < ffn_old or d_new < d_old:
            raise _narrower(self.name)
        rows = _rows(x)
        full = self._madds(step, x)
        clean = not changed_in and d_new == d_old
        if clean and ffn_new == ffn_old:
            self.step = step
            return self.y, False, 0, full
        if clean:
            grown = self._hidden_cols(step, ffn_old, ffn_new)
            hidden = np.concatenate([self.hidden, grown], axis=-1)
            spent = rows * (ffn_new - ffn_old) * d_new
            if exact:
                raw = _cgemm(hidden, step.fc2_weight)
                spent += rows * d_new * ffn_new
            else:
                raw = self.raw + _cgemm(grown, step.fc2_weight[:, ffn_old:])
                spent += rows * d_new * (ffn_new - ffn_old)
            self.hidden, self.raw, self.step = hidden, raw, step
            self.y = self._finish(step, raw)
            return self.y, True, spent, full
        y, _, spent, full = self.run(step, x)
        return y, True, spent, full


class _ResidualNode(_Node):
    """A pre-activation residual block over the nodes of its branches.

    Runs, and widens, its children in a fixed order: the pre-activation,
    the body, then the projection shortcut, each passed the changed flag
    of what it reads (the identity shortcut reads the block input).  The
    block output, the sum of both branches, is recomputed on every pass;
    its prefix changed if either branch's did.
    """

    _cached = ()

    def __init__(self, op: Op, step: ResidualStep):
        super().__init__(op)
        self.pre = [_node(o, s) for o, s in zip(op.pre, step.pre)]
        self.body = [_node(o, s) for o, s in zip(op.body, step.body)]
        self.skip = [] if op.shortcut is None \
            else [_node(op.shortcut, step.shortcut)]

    def _pass(self, step, x, changed_in, move):
        """Thread ``x`` through the children; ``move(node, step, x,
        changed)`` runs or widens one child."""
        spent = full = 0

        def chain(nodes, steps, h, changed):
            nonlocal spent, full
            for node, child in zip(nodes, steps):
                h, changed, s, f = move(node, child, h, changed)
                spent += s
                full += f
            return h, changed

        h, pre_changed = chain(self.pre, step.pre, x, changed_in)
        out, changed = chain(self.body, step.body, h, pre_changed)
        if step.shortcut is None:
            skip, skip_changed = x, changed_in
        else:
            skip, skip_changed = chain(self.skip, [step.shortcut], h,
                                       pre_changed)
        self.step = step
        return out + skip, changed or skip_changed, spent, full

    def run(self, step, x):
        y, _, spent, full = self._pass(
            step, x, True, lambda node, s, h, _: node.run(s, h))
        return y, True, spent, full

    def widen(self, step, x, changed_in, exact):
        return self._pass(step, x, changed_in,
                          lambda node, s, h, c: node.widen(s, h, c, exact))

    def take_rows(self, rows) -> None:
        # Copies first: a subset clone shares its children otherwise.
        for attr in ("pre", "body", "skip"):
            nodes = [copy.copy(node) for node in getattr(self, attr)]
            for node in nodes:
                node.take_rows(rows)
            setattr(self, attr, nodes)


#: Steps with a Sec. 3.5 reuse rule; every other step gets a :class:`_Node`.
_NODES = {
    LinearStep: _LinearNode,
    DenseStep: _LinearNode,
    ConvStep: _ConvNode,
    LSTMStackStep: _LSTMNode,
    AttentionBlockStep: _AttentionBlockNode,
    FFNBlockStep: _FFNBlockNode,
}


def _node(op: Op, step: PlanStep) -> _Node:
    """The resumable node of one compiled op."""
    if isinstance(step, ResidualStep):
        return _ResidualNode(op, step)
    return _NODES.get(type(step), _Node)(op)


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
class ResumablePlan:
    """A compiled plan that retains intermediates and widens in place.

    Parameters
    ----------
    model:
        A sliced model with a family declaration (every bundled model;
        others raise :class:`~repro.errors.PlanError`).
    profile:
        The starting (narrow) slice profile; scalar rates coerce.
    exact:
        Default widening mode.  ``True`` guarantees bitwise equality
        with a from-scratch plan at the target profile; ``False`` uses
        the paper's approximate cross-term reuse (cheaper, drifts at
        float tolerance).

    Typical lifecycle::

        plan = ResumablePlan(model, 0.25, exact=False)
        logits = plan.run(batch)            # narrow answer
        logits = plan.widen(0.5)            # upgraded answer, cross-terms only
        saved = plan.flops_saved()          # reuse accounting
    """

    def __init__(self, model, profile, exact: bool = True):
        self.model = model
        self.profile = as_profile(profile)
        self.exact = bool(exact)
        self._plan = compile_plan(model, self.profile)
        self.family = self._plan.family
        self.nodes = [_node(op, step) for op, step
                      in zip(self.family.ops(model), self._plan.steps)]
        self._inputs = None
        self._output = None
        self.history: list[SliceProfile] = []
        self.spent_madds = 0
        self.scratch_madds = 0
        self.last_report: list[dict] = []

    # -- staleness -------------------------------------------------------
    def is_valid(self) -> bool:
        """True while the model still matches the compiled snapshot."""
        return self._plan.is_valid()

    def _check_valid(self, what: str) -> None:
        if not self.is_valid():
            raise PlanError(
                f"cannot {what}: the model's parameters or running "
                f"statistics changed after this ResumablePlan was compiled; "
                f"retained intermediates are stale — rebuild the plan")

    # -- execution -------------------------------------------------------
    def run(self, inputs) -> np.ndarray:
        """Execute from scratch at the starting profile; retain state."""
        self._check_valid("run")
        x = np.asarray(inputs)
        if x.dtype.kind not in "iu":
            x = _f32(x)
        self._inputs = x
        out, report = self._execute(x, self._plan.steps, from_scratch=True)
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
        plan = compile_plan(self.model, target)
        out, report = self._execute(self._inputs, plan.steps,
                                    from_scratch=False, exact=exact)
        self._plan = plan
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
        clone = copy.copy(self)
        clone.nodes = [copy.copy(node) for node in self.nodes]
        for node in clone.nodes:
            node.take_rows(rows)
        clone._inputs = self._inputs[rows]
        clone._output = None if self._output is None \
            else self._output[rows]
        clone.history = list(self.history)
        clone.spent_madds = 0
        clone.scratch_madds = 0
        clone.last_report = []
        return clone

    # -- internals -------------------------------------------------------
    def _execute(self, x, steps: list[PlanStep], from_scratch: bool,
                 exact: bool = True):
        report: list[dict] = []
        changed = False

        def apply(unit, value):
            nonlocal changed
            node, step = unit
            if from_scratch:
                out, changed, spent, full = node.run(step, value)
            else:
                out, changed, spent, full = node.widen(step, value,
                                                       changed, exact)
            entry = {"name": node.name, "spent": spent, "full": full,
                     "saved": full - spent, "reused": not changed}
            note = getattr(node, "last_note", None)
            if note:
                entry["note"] = note
            report.append(entry)
            return out

        units = list(zip(self.nodes, steps))
        return self.family.execute(self.model, units, x, apply), report

    def __repr__(self) -> str:
        return (f"ResumablePlan({type(self.model).__name__}, "
                f"profile={self.profile.label()}, "
                f"exact={self.exact}, widens={max(len(self.history) - 1, 0)})")


def scratch_madds(model, profile, batch: int = 1,
                  row_shape: tuple[int, ...] | None = None) -> int:
    """Multiply-adds of one from-scratch pass at ``profile``.

    Counts the GEMM-shaped work (dense and recurrent projections,
    convolution contractions, attention products) the resumable plan
    accounts — the same units :meth:`ResumablePlan.flops_saved` reports,
    so cascade cost models and the serving-time FLOPs fractions agree
    with the measured counters.  Every family's count is linear in the
    batch, so one 1-row from-scratch pass over zeros of ``row_shape``
    (one float input row's shape) prices any model; an MLP's row shape
    defaults to its input width.
    """
    from ..models.mlp import MLP

    if row_shape is None:
        if not isinstance(model, MLP):
            raise PlanError(
                f"scratch_madds needs row_shape for {type(model).__name__} "
                f"models")
        row_shape = (model.in_features,)
    plan = ResumablePlan(model, profile)
    plan.run(np.zeros((1,) + tuple(row_shape), dtype=np.float32))
    return batch * plan.scratch_madds


def anytime_predict(model, rates, inputs,
                    budget_madds: int | None = None) -> list[dict]:
    """Anytime prediction (paper Secs. 1 and 3.5): answer now, then refine.

    Runs one approximate-mode :class:`ResumablePlan` at the narrowest of
    ``rates`` and widens it to each wider rate in turn, so every
    refinement reuses the narrow pass's base-block products (the paper's
    ``y~a ~= ya``).  Refinement stops before the step that would push the
    plan's measured multiply-adds past ``budget_madds``; the base step
    always runs.

    Returns one ``{"rate", "logits", "step_madds", "cumulative_madds"}``
    dict per executed rate; the last one's ``logits`` is the best
    available answer.
    """
    rates = sorted(float(r) for r in rates)
    if not rates:
        raise ConfigError("need at least one refinement rate")
    plan = ResumablePlan(model, rates[0], exact=False)
    logits = plan.run(inputs)
    steps = [{"rate": rates[0], "logits": logits,
              "step_madds": plan.spent_madds,
              "cumulative_madds": plan.spent_madds}]
    for rate in rates[1:]:
        before = plan.spent_madds
        logits = plan.widen(rate)
        if budget_madds is not None and plan.spent_madds > budget_madds:
            break
        steps.append({"rate": rate, "logits": logits,
                      "step_madds": plan.spent_madds - before,
                      "cumulative_madds": plan.spent_madds})
    return steps
