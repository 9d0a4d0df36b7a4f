"""Unit tests for softmax, losses, dropout, one-hot and the FLOPs profiler."""

import numpy as np
import pytest

from composed_reference import composed_group_norm, nll_loss
from repro.errors import ShapeError
from repro.slicing.plans import GroupNormStep
from repro.tensor import (
    Tensor,
    WorkspaceArena,
    check_gradients,
    count_flops,
    cross_entropy,
    dropout,
    group_norm,
    log_softmax,
    mse_loss,
    one_hot,
    softmax,
    use_workspace,
)
from repro.tensor.fused import group_norm_eval


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


class TestSoftmax:
    def test_log_softmax_normalizes(self, rng):
        x = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
        probs = np.exp(log_softmax(x).data)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_log_softmax_shift_invariant(self, rng):
        x = rng.normal(size=(2, 4))
        a = log_softmax(Tensor(x, dtype=np.float64)).data
        b = log_softmax(Tensor(x + 100.0, dtype=np.float64)).data
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_log_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0]], dtype=np.float64))
        out = log_softmax(x).data
        assert np.isfinite(out).all()

    def test_log_softmax_grad(self, rng):
        x = t(rng.normal(size=(3, 4)))
        check_gradients(lambda ts: log_softmax(ts[0]), [x])

    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_allclose(softmax(x).data.sum(axis=1), 1.0,
                                   rtol=1e-5)

    def test_softmax_axis0(self, rng):
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_allclose(softmax(x, axis=0).data.sum(axis=0), 1.0,
                                   rtol=1e-5)


class TestGroupNorm:
    def test_channels_must_split_into_groups(self, rng):
        x = rng.normal(size=(2, 6, 3, 3)).astype(np.float32)
        w, b = Tensor(np.ones(6, np.float32)), Tensor(np.zeros(6, np.float32))
        with pytest.raises(ShapeError, match="6 channels do not split"):
            group_norm_eval(x, w.data, b.data, 4, 1e-5)
        with pytest.raises(ShapeError):
            group_norm(Tensor(x), w, b, 4, 1e-5)
        with use_workspace(WorkspaceArena()), pytest.raises(ShapeError):
            group_norm(Tensor(x), w, b, 4, 1e-5)

    @pytest.mark.parametrize("affine", [np.float32, np.float64, None],
                             ids=["f32", "f64_affine", "no_affine"])
    def test_every_forward_is_bitwise_the_composed_reference(self, rng,
                                                             affine):
        # The kernel without and with an arena, and the compiled plan
        # step, against Tensor-op group norm: values and dtype.
        x = Tensor(rng.normal(size=(3, 8, 5, 3)).astype(np.float32))
        w = b = None
        if affine is not None:
            w = Tensor(rng.normal(size=8), dtype=affine)
            b = Tensor(rng.normal(size=8), dtype=affine)
        want = composed_group_norm(x, w, b, 4, 1e-5).data
        plain = group_norm(x, w, b, 4, 1e-5).data
        with use_workspace(WorkspaceArena()):
            pooled = group_norm(x, w, b, 4, 1e-5).data
        for got in (plain, pooled):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        if affine is np.float32:
            step = GroupNormStep(w.data, b.data, group_size=2, eps=1e-5)
            np.testing.assert_array_equal(step(x.data), want)


class TestLosses:
    def test_nll_picks_target_logprob(self):
        # Log-probabilities are their own log-softmax, so the reference
        # NLL and the cross-entropy kernel both pick the target entries.
        lp = Tensor(np.log([[0.7, 0.3], [0.2, 0.8]]), dtype=np.float64)
        targets = np.array([0, 1])
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        for loss in (nll_loss, cross_entropy):
            assert loss(lp, targets).item() == pytest.approx(expected,
                                                             rel=1e-6)

    def test_nll_shape_checks(self):
        for loss in (nll_loss, cross_entropy):
            with pytest.raises(ShapeError):
                loss(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
            with pytest.raises(ShapeError):
                loss(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float64))
        loss = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-6)

    def test_cross_entropy_grad(self, rng):
        x = t(rng.normal(size=(5, 3)))
        targets = rng.integers(0, 3, size=5)
        check_gradients(lambda ts: cross_entropy(ts[0], targets), [x])

    def test_perfect_prediction_loss_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = cross_entropy(Tensor(logits, dtype=np.float64),
                             np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_mse_loss(self):
        loss = mse_loss(Tensor([1.0, 2.0]), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_mse_grad(self, rng):
        x = t(rng.normal(size=(4,)))
        target = rng.normal(size=(4,))
        check_gradients(lambda ts: mse_loss(ts[0], target), [x])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_zero_rate_is_identity(self, rng):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        assert dropout(x, 0.0, rng) is x

    def test_survivors_rescaled(self, rng):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = dropout(x, 0.5, rng).data
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_mean_roughly_preserved(self, rng):
        x = Tensor(np.ones((20000,), dtype=np.float32))
        out = dropout(x, 0.3, rng).data
        assert abs(out.mean() - 1.0) < 0.05

    def test_invalid_rate_raises(self, rng):
        x = Tensor(np.ones((4,), dtype=np.float32))
        with pytest.raises(ShapeError):
            dropout(x, 1.0, rng)
        with pytest.raises(ShapeError):
            dropout(x, -0.1, rng)

    def test_gradient_masks_match_forward(self, rng):
        x = Tensor(np.ones((100,), dtype=np.float64), requires_grad=True,
                   dtype=np.float64)
        out = dropout(x, 0.5, rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestOneHot:
    def test_values(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_nd_shape(self):
        assert one_hot(np.zeros((2, 3), dtype=int), 5).shape == (2, 3, 5)


class TestFlopsProfiler:
    def test_matmul_counted(self):
        a = Tensor(np.zeros((4, 5), dtype=np.float32))
        b = Tensor(np.zeros((5, 6), dtype=np.float32))
        with count_flops() as fc:
            a @ b
        assert fc.total == 4 * 5 * 6

    def test_conv_counted(self):
        from repro.tensor import conv2d
        x = Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32))
        k = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
        with count_flops() as fc:
            conv2d(x, k, padding=1)
        assert fc.total == 2 * 4 * 3 * 3 * 3 * 8 * 8

    def test_nested_counters_both_updated(self):
        a = Tensor(np.zeros((2, 2), dtype=np.float32))
        with count_flops() as outer:
            with count_flops() as inner:
                a @ a
        assert outer.total == inner.total == 8

    def test_no_counting_outside_context(self):
        a = Tensor(np.zeros((2, 2), dtype=np.float32))
        with count_flops() as fc:
            pass
        a @ a
        assert fc.total == 0

    def test_by_kind_breakdown(self):
        from repro.tensor import conv2d
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        k = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        a = Tensor(np.zeros((2, 2), dtype=np.float32))
        with count_flops() as fc:
            conv2d(x, k)
            a @ a
        assert set(fc.by_kind) == {"conv2d", "matmul"}
