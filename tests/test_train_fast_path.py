"""Differential tests for the training fast path.

The fast path (``SliceTrainer(fast_path=True)``) swaps pooled workspace
buffers, the pooled conv and max-pool backwards, and the cross-rate
im2col cache into Algorithm 1.  Its numerical contract, asserted here:

* loss values are **bitwise identical** to the reference path on the
  first step (identical weights, bitwise-identical forward kernels);
* full training trajectories (losses and final weights) agree to
  float32 rounding — the pooled backwards round differently;
* models that use none of the pooled kernels (the NNLM) are bitwise
  identical end to end, workspace active or not.

The single-node group-norm and cross-entropy kernels are checked
against the composed Tensor-op references in ``composed_reference.py``.
"""

import numpy as np
import pytest

from composed_reference import composed_cross_entropy, composed_group_norm
from repro import obs
from repro.models import MLP, NNLM, SlicedVGG
from repro.nn import GroupNorm
from repro.optim import SGD, clip_grad_norm
from repro.slicing import FixedScheme, RandomStaticScheme, slice_rate
from repro.slicing.trainer import SliceTrainer
from repro.tensor import (
    Tensor,
    WorkspaceArena,
    cross_entropy,
    group_norm,
    max_pool2d,
    use_workspace,
)
from repro.tensor.ops import _col2im, _im2col

RATES = [0.25, 0.5, 0.75, 1.0]


def _im2col_reference(x, kh, kw, stride, padding):
    """Columns (B, C*kh*kw, Hout*Wout) from ``np.pad`` and a window view."""
    batch, channels = x.shape[:2]
    (ph, pw), (sh, sw) = padding, stride
    x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw),
                                                       axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    h_out, w_out = windows.shape[2:4]
    # (B, C, Hout, Wout, kh, kw) -> (B, C, kh, kw, Hout, Wout)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        batch, channels * kh * kw, h_out * w_out)
    return cols, (h_out, w_out)


# ---------------------------------------------------------------------------
# Workspace arena mechanics
# ---------------------------------------------------------------------------
class TestWorkspaceArena:
    def test_acquire_distinct_until_end_pass(self):
        arena = WorkspaceArena()
        a = arena.acquire((4, 3), np.float32)
        b = arena.acquire((4, 3), np.float32)
        assert a is not b
        arena.end_pass()
        c = arena.acquire((4, 3), np.float32)
        assert c is a  # recycled, not reallocated
        assert arena.pool_misses == 2 and arena.pool_hits == 1

    def test_dtype_and_shape_key_separately(self):
        arena = WorkspaceArena()
        a = arena.acquire((4,), np.float32)
        b = arena.acquire((4,), np.float64)
        c = arena.acquire((5,), np.float32)
        assert len({id(a), id(b), id(c)}) == 3
        assert a.dtype == np.float32 and b.dtype == np.float64

    def test_step_scope_survives_end_pass(self):
        arena = WorkspaceArena()
        s = arena.acquire((2, 2), np.float32, scope="step")
        arena.end_pass()
        s2 = arena.acquire((2, 2), np.float32, scope="step")
        assert s2 is not s  # still handed out; end_pass must not recycle
        arena.end_step()
        s3 = arena.acquire((2, 2), np.float32, scope="step")
        assert s3 is s

    def test_end_step_clears_pin_and_cache(self):
        arena = WorkspaceArena()
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 5)).astype(
            np.float32)
        arena.begin_step(pinned_input=x)
        assert arena.pinned is x
        arena.im2col(x, 3, 3, (1, 1), (1, 1))
        arena.im2col(x, 3, 3, (1, 1), (1, 1))
        assert arena.col_reuses == 1
        arena.end_step()
        assert arena.pinned is None
        arena.im2col(x, 3, 3, (1, 1), (1, 1))
        assert arena.col_reuses == 1  # cache was cleared, no further reuse

    def test_nbytes_counts_all_pools(self):
        arena = WorkspaceArena()
        arena.acquire((8,), np.float32)
        arena.acquire((4,), np.float64)
        assert arena.nbytes() == 8 * 4 + 4 * 8
        stats = arena.stats()
        assert stats["pool_misses"] == 2 and stats["bytes"] == arena.nbytes()


# ---------------------------------------------------------------------------
# Pooled conv kernels vs the reference im2col/col2im
# ---------------------------------------------------------------------------
class TestWorkspaceConvKernels:
    @pytest.mark.parametrize("stride,padding,kernel", [
        ((1, 1), (1, 1), 3),
        ((1, 1), (0, 0), 3),
        ((2, 2), (1, 1), 3),
        ((2, 2), (0, 0), 2),
        ((1, 1), (0, 0), 1),
    ])
    def test_im2col_matches_reference(self, stride, padding, kernel):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        arena = WorkspaceArena()
        got, got_hw = arena.im2col(x, kernel, kernel, stride, padding)
        want, want_hw = _im2col(x, kernel, kernel, stride, padding)
        assert got_hw == want_hw
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride,padding,kernel", [
        ((1, 1), (1, 1), 3),
        ((1, 1), (0, 0), 3),
        ((2, 2), (1, 1), 3),
        ((2, 2), (0, 0), 2),
        ((1, 1), (0, 0), 1),
        ((1, 2), (2, 0), 3),
        ((3, 1), (0, 1), 2),
    ])
    def test_gathers_match_independent_reference(self, stride, padding,
                                                 kernel):
        # _im2col and the arena share one strided gather, so each is
        # checked against a window view that shares no code with them.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 7)).astype(np.float32)
        want, want_hw = _im2col_reference(x, kernel, kernel, stride, padding)
        for got, got_hw in (_im2col(x, kernel, kernel, stride, padding),
                            WorkspaceArena().im2col(x, kernel, kernel,
                                                    stride, padding)):
            assert got_hw == want_hw
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride,padding,kernel", [
        ((1, 1), (1, 1), 3),
        ((1, 1), (0, 0), 3),
        ((2, 2), (1, 1), 3),
        ((2, 2), (0, 0), 2),
        ((1, 1), (0, 0), 1),
    ])
    def test_col2im_matches_reference(self, stride, padding, kernel):
        rng = np.random.default_rng(2)
        x_shape = (2, 3, 8, 8)
        h_out = (8 + 2 * padding[0] - kernel) // stride[0] + 1
        w_out = (8 + 2 * padding[1] - kernel) // stride[1] + 1
        cols = rng.normal(
            size=(2, 3 * kernel * kernel, h_out * w_out)).astype(np.float32)
        arena = WorkspaceArena()
        got = arena.col2im(cols, x_shape, kernel, kernel, stride, padding,
                           (h_out, w_out))
        want = _col2im(cols, x_shape, kernel, kernel, stride, padding,
                       (h_out, w_out))
        np.testing.assert_array_equal(got, want)

    def test_pinned_cache_shares_columns_across_rates(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        arena = WorkspaceArena()
        arena.begin_step(pinned_input=x)
        cols1, _ = arena.im2col(x, 3, 3, (1, 1), (1, 1))
        arena.end_pass()
        cols2, _ = arena.im2col(x, 3, 3, (1, 1), (1, 1))
        assert cols2 is cols1  # step-scoped: the same columns, not a copy
        assert arena.col_reuses == 1

    def test_unpinned_input_is_not_cached(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        other = x.copy()
        arena = WorkspaceArena()
        arena.begin_step(pinned_input=x)
        arena.im2col(other, 3, 3, (1, 1), (1, 1))
        arena.im2col(other, 3, 3, (1, 1), (1, 1))
        assert arena.col_reuses == 0


# ---------------------------------------------------------------------------
# Single-node kernels vs the composed reference graphs
# ---------------------------------------------------------------------------
def _kernel_and_grads(fn, inputs, upstream=None, arena=None):
    """``fn(*inputs)`` and the gradients of ``inputs``, optionally under
    ``arena``; gradients are copied and reset so inputs can be reused."""
    for tensor in inputs:
        tensor.zero_grad()
    if arena is None:
        out = fn(*inputs)
        out.backward(upstream)
    else:
        with use_workspace(arena):
            out = fn(*inputs)
            out.backward(upstream)
    return out.data.copy(), [tensor.grad.copy() for tensor in inputs]


class TestFusedKernels:
    def test_cross_entropy_forward_bitwise_backward_close(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(12, 7)).astype(np.float32),
                        requires_grad=True)
        targets = rng.integers(0, 7, size=12)

        ref, (ref_grad,) = _kernel_and_grads(
            lambda x: composed_cross_entropy(x, targets), [logits])
        for arena in (None, WorkspaceArena()):
            got, (grad,) = _kernel_and_grads(
                lambda x: cross_entropy(x, targets), [logits], arena=arena)
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-6, atol=1e-8)

    def test_group_norm_forward_bitwise_backward_close(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 6, 5, 5)).astype(np.float32),
                   requires_grad=True)
        layer = GroupNorm(num_groups=3, num_channels=6)
        layer.weight.data = rng.normal(size=6).astype(np.float32)
        layer.bias.data = rng.normal(size=6).astype(np.float32)
        upstream = rng.normal(size=x.shape).astype(np.float32)
        inputs = [x, layer.weight, layer.bias]

        ref, ref_grads = _kernel_and_grads(
            lambda *ts: composed_group_norm(*ts, 3, layer.eps), inputs,
            upstream)
        plain, plain_grads = _kernel_and_grads(
            lambda x, w, b: layer(x), inputs, upstream)
        pooled, pooled_grads = _kernel_and_grads(
            lambda x, w, b: layer(x), inputs, upstream,
            arena=WorkspaceArena())

        np.testing.assert_array_equal(plain, ref)
        np.testing.assert_array_equal(pooled, ref)
        for got, pool, want in zip(plain_grads, pooled_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)
            # One backward body: the arena only supplies its buffers.
            np.testing.assert_array_equal(pool, got)

    def test_group_norm_pooled_branch_is_bitwise(self):
        rng = np.random.default_rng(7)
        x_np = rng.normal(size=(3, 8, 4, 4)).astype(np.float32)
        weight = Tensor(rng.normal(size=8).astype(np.float32),
                        requires_grad=True)
        bias = Tensor(rng.normal(size=8).astype(np.float32),
                      requires_grad=True)
        want = composed_group_norm(Tensor(x_np), weight, bias, 2, 1e-5)
        plain = group_norm(Tensor(x_np.copy()), weight, bias,
                           groups=2, eps=1e-5)
        with use_workspace(WorkspaceArena()):
            pooled = group_norm(Tensor(x_np.copy()), weight, bias,
                                groups=2, eps=1e-5)
        np.testing.assert_array_equal(plain.data, want.data)
        np.testing.assert_array_equal(pooled.data, want.data)

    def test_max_pool_pooled_branch_matches(self):
        rng = np.random.default_rng(8)
        # ReLU-like input with exact zero ties inside pooling windows.
        x_np = np.maximum(
            rng.normal(size=(3, 4, 8, 8)), 0).astype(np.float32)
        upstream = rng.normal(size=(3, 4, 4, 4)).astype(np.float32)

        ref_in = Tensor(x_np.copy(), requires_grad=True)
        ref = max_pool2d(ref_in, 2)
        ref.backward(upstream)

        ws_in = Tensor(x_np.copy(), requires_grad=True)
        with use_workspace(WorkspaceArena()):
            pooled = max_pool2d(ws_in, 2)
            pooled.backward(upstream)

        np.testing.assert_array_equal(pooled.data, ref.data)
        # Reference divides by int64 counts (promotes to float64); the
        # pooled branch stays in float32 — same tie-splitting, rounded.
        np.testing.assert_allclose(ws_in.grad, ref_in.grad,
                                   rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------------------
# End-to-end trainer differential runs
# ---------------------------------------------------------------------------
def _train_vgg(fast, scheme_factory, steps=4):
    model = SlicedVGG.cifar_mini(num_classes=6, width=16, seed=0)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=5e-4)
    trainer = SliceTrainer(model, scheme_factory(), optimizer,
                           rng=np.random.default_rng(7), fast_path=fast)
    rng = np.random.default_rng(11)
    history = []
    for _ in range(steps):
        x = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 6, size=8)
        history.append(trainer.train_batch(x, y))
    return model, history, trainer


def _train_mlp(fast, steps=4):
    model = MLP(in_features=12, hidden=[16, 16], num_classes=5, seed=0)
    optimizer = SGD(model.parameters(), lr=0.1)
    trainer = SliceTrainer(model, RandomStaticScheme(RATES), optimizer,
                           rng=np.random.default_rng(7), fast_path=fast)
    rng = np.random.default_rng(13)
    history = []
    for _ in range(steps):
        x = rng.normal(size=(16, 12)).astype(np.float32)
        y = rng.integers(0, 5, size=16)
        history.append(trainer.train_batch(x, y))
    return model, history, trainer


def _assert_trajectories_match(ref_run, fast_run, weight_rtol=1e-5):
    m_ref, h_ref, _ = ref_run
    m_fast, h_fast, _ = fast_run
    assert h_ref[0].keys() == h_fast[0].keys()
    # Step 0: same weights, bitwise-identical forward kernels.
    for rate in h_ref[0]:
        assert h_ref[0][rate] == h_fast[0][rate]
    for step_ref, step_fast in zip(h_ref, h_fast):
        for rate in step_ref:
            assert step_fast[rate] == pytest.approx(step_ref[rate],
                                                    rel=1e-4, abs=1e-6)
    for p_ref, p_fast in zip(m_ref.parameters(), m_fast.parameters()):
        np.testing.assert_allclose(p_fast.data, p_ref.data,
                                   rtol=weight_rtol, atol=1e-6)


class TestTrainerDifferential:
    def test_vgg_random_static_scheme(self):
        _assert_trajectories_match(
            _train_vgg(False, lambda: RandomStaticScheme(RATES)),
            _train_vgg(True, lambda: RandomStaticScheme(RATES)))

    def test_vgg_fixed_scheme(self):
        _assert_trajectories_match(
            _train_vgg(False, lambda: FixedScheme(1.0)),
            _train_vgg(True, lambda: FixedScheme(1.0)))

    def test_mlp_random_static_scheme(self):
        _assert_trajectories_match(_train_mlp(False), _train_mlp(True))

    def test_nnlm_is_bitwise_under_workspace(self):
        # The NNLM uses no conv, no GroupNorm and no (N, C) cross-entropy:
        # an active workspace must leave it bitwise untouched.
        def run(fast):
            model = NNLM(vocab_size=32, embed_dim=12, hidden_size=12,
                         seed=0)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.5)
            scheme = RandomStaticScheme(RATES)
            rng = np.random.default_rng(5)
            arena = WorkspaceArena() if fast else None
            data_rng = np.random.default_rng(17)
            losses = []
            for _ in range(3):
                tokens = data_rng.integers(0, 32, size=(6, 4))
                targets = data_rng.integers(0, 32, size=(6, 4))
                optimizer.zero_grad()
                rates = scheme.sample(rng)
                if arena is not None:
                    arena.begin_step()
                    with use_workspace(arena):
                        for rate in rates:
                            with slice_rate(rate):
                                loss = model.sequence_nll(tokens, targets)
                            loss.backward()
                            losses.append(loss.item())
                            arena.end_pass()
                    arena.end_step()
                else:
                    for rate in rates:
                        with slice_rate(rate):
                            loss = model.sequence_nll(tokens, targets)
                        loss.backward()
                        losses.append(loss.item())
                inv = 1.0 / len(rates)
                for param in optimizer.params:
                    if param.grad is not None:
                        param.grad *= inv
                clip_grad_norm(model.parameters(), 0.25)
                optimizer.step()
            return model, losses

        m_ref, l_ref = run(False)
        m_fast, l_fast = run(True)
        assert l_ref == l_fast
        for p_ref, p_fast in zip(m_ref.parameters(), m_fast.parameters()):
            np.testing.assert_array_equal(p_fast.data, p_ref.data)

    def test_fast_path_flag_controls_arena(self):
        model = MLP(in_features=4, hidden=[6], num_classes=3, seed=0)
        optimizer = SGD(model.parameters(), lr=0.1)
        on = SliceTrainer(model, FixedScheme(1.0), optimizer)
        assert on.fast_path and isinstance(on.arena, WorkspaceArena)
        off = SliceTrainer(model, FixedScheme(1.0), optimizer,
                           fast_path=False)
        assert not off.fast_path and off.arena is None


# ---------------------------------------------------------------------------
# Observability wiring
# ---------------------------------------------------------------------------
class TestFastPathObservability:
    def test_counters_track_pooling_and_reuse(self):
        registry, _ = obs.configure()
        try:
            _, _, trainer = _train_vgg(
                True, lambda: RandomStaticScheme(RATES), steps=2)
            assert registry.counter("train_fast_steps_total").value() == 2.0
            hits = registry.counter("train_ws_pool_hits_total")
            misses = registry.counter("train_ws_pool_misses_total")
            # Every rate after the first recycles pass-scoped buffers, and
            # step 2 starts fully warm.
            assert hits.value(scope="pass") > 0
            assert misses.value(scope="pass") > 0
            reuses = registry.counter("train_ws_col_reuses_total")
            # The unsliced input's stem columns are shared across rates.
            assert reuses.value() == trainer.arena.col_reuses > 0
            assert registry.gauge("train_ws_bytes").value() == float(
                trainer.arena.nbytes())
        finally:
            obs.disable()

    def test_kernel_time_is_recorded_only_under_an_arena(self):
        # train_layer_seconds is training time: eval forwards and the
        # arena-free trainer call the same kernels but record nothing.
        rng = np.random.default_rng(9)
        layer = GroupNorm(num_groups=2, num_channels=4)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float32),
                   requires_grad=True)
        logits = Tensor(rng.normal(size=(3, 5)).astype(np.float32),
                        requires_grad=True)
        targets = np.array([0, 4, 2])

        def run():
            group_norm(x, layer.weight, layer.bias, 2, layer.eps).backward(
                np.ones(x.shape, np.float32))
            cross_entropy(logits, targets).backward()

        registry, _ = obs.configure()
        try:
            layer.eval()
            layer(x)
            cross_entropy(logits, targets)
            run()
            assert registry.get("train_layer_seconds") is None
            with use_workspace(WorkspaceArena()):
                run()
            seconds = registry.get("train_layer_seconds")
            for name in ("group_norm", "cross_entropy"):
                for phase in ("forward", "backward"):
                    assert seconds.count(layer=name, phase=phase) == 1
        finally:
            obs.disable()

    def test_arena_stats_match_counters_off(self):
        # With obs disabled the arena still tracks its own stats.
        assert obs.disabled()
        _, _, trainer = _train_vgg(
            True, lambda: RandomStaticScheme(RATES), steps=2)
        stats = trainer.arena.stats()
        assert stats["pool_hits"] > 0 and stats["col_reuses"] > 0
