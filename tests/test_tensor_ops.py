"""Unit tests for conv2d, pooling, embedding, padding and no_grad."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.slicing.plans import MaxPoolStep
from repro.tensor import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    embedding,
    global_avg_pool2d,
    max_pool2d,
    no_grad,
    pad2d,
    pad_channels,
)
from repro.tensor.ops import window_max
from repro.tensor.workspace import WorkspaceArena, use_workspace


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_matches_manual_convolution(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        k = rng.normal(size=(1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(k)).data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i:i + 3, j:j + 3] * k[0, 0]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_output_shape_stride2(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        k = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32))
        assert conv2d(x, k, stride=2, padding=1).shape == (2, 5, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        k = Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, k)

    def test_requires_4d(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((4, 4))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_empty_output_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        k = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, k)

    def test_grad_with_bias(self, rng):
        x = t(rng.normal(size=(2, 2, 5, 5)))
        k = t(rng.normal(size=(3, 2, 3, 3)) * 0.4)
        b = t(rng.normal(size=(3,)))
        check_gradients(lambda ts: conv2d(ts[0], ts[1], ts[2], padding=1),
                        [x, k, b])

    def test_grad_stride_2_no_pad(self, rng):
        x = t(rng.normal(size=(1, 2, 6, 6)))
        k = t(rng.normal(size=(2, 2, 2, 2)) * 0.4)
        check_gradients(lambda ts: conv2d(ts[0], ts[1], stride=2), [x, k])

    def test_1x1_conv_equals_linear_mix(self, rng):
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        w = rng.normal(size=(2, 3, 1, 1)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w)).data
        expected = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out, expected, rtol=1e-5)


class TestPooling:
    def test_max_pool_value(self):
        x = Tensor(np.array([[[[1, 2], [3, 4.0]]]], dtype=np.float32))
        np.testing.assert_allclose(max_pool2d(x, 2).data, [[[[4.0]]]])

    def test_avg_pool_value(self):
        x = Tensor(np.array([[[[1, 2], [3, 4.0]]]], dtype=np.float32))
        np.testing.assert_allclose(avg_pool2d(x, 2).data, [[[[2.5]]]])

    def test_max_pool_grad(self, rng):
        x = t(rng.normal(size=(2, 3, 4, 4)))
        check_gradients(lambda ts: max_pool2d(ts[0], 2), [x])

    def test_avg_pool_grad(self, rng):
        x = t(rng.normal(size=(2, 3, 4, 4)))
        check_gradients(lambda ts: avg_pool2d(ts[0], 2), [x])

    def test_pool_indivisible_raises(self):
        x = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            max_pool2d(x, 2)
        with pytest.raises(ShapeError):
            avg_pool2d(x, 2)

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)),
                                   rtol=1e-5)


# Ties between +0.0 and -0.0 are where tap order shows: np.maximum keeps
# its second operand on a tie.  Reducing the h taps first would differ
# from the reduce on the window [[0.0, 0.0], [-0.0, -1.0]] (the reduce
# gives -0.0, h-first 0.0); the w-first order window_max uses does not.
_TIE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5], dtype=np.float32)


@st.composite
def _pool_inputs(draw):
    k = draw(st.sampled_from([2, 3]))
    batch, channels, h_out, w_out = (draw(st.integers(1, 3))
                                     for _ in range(4))
    shape = (batch, channels, h_out * k, w_out * k)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["ties", "zeros", "normal"]))
    if kind == "ties":
        x = rng.choice(_TIE_VALUES, size=shape)
    elif kind == "zeros":        # all-zero windows of mixed sign
        x = rng.choice(_TIE_VALUES[:2], size=shape)
    else:
        x = rng.normal(size=shape).astype(np.float32)
    return x.astype(np.float32), k


def _reduce_bits(x, k):
    b, c, h, w = x.shape
    view = x.reshape(b, c, h // k, k, w // k, k)
    return view.max(axis=(3, 5)).view(np.uint32)


class TestWindowMax:
    """Pairwise tap maxima are bitwise the multi-axis reduce."""

    @settings(max_examples=300, deadline=None)
    @given(_pool_inputs())
    def test_bits_equal_reduce(self, case):
        x, k = case
        b, c, h, w = x.shape
        got = window_max(x.reshape(b, c, h // k, k, w // k, k))
        np.testing.assert_array_equal(got.view(np.uint32), _reduce_bits(x, k))

    @settings(max_examples=100, deadline=None)
    @given(_pool_inputs())
    def test_plan_step_and_both_pool_branches(self, case):
        x, k = case
        want = _reduce_bits(x, k)
        np.testing.assert_array_equal(MaxPoolStep(k)(x).view(np.uint32), want)
        plain = max_pool2d(Tensor(x), k).data
        np.testing.assert_array_equal(plain.view(np.uint32), want)
        with use_workspace(WorkspaceArena()):
            pooled = max_pool2d(Tensor(x), k).data
        np.testing.assert_array_equal(pooled.view(np.uint32), want)


class TestEmbedding:
    def test_lookup(self, rng):
        w = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        out = embedding(w, np.array([1, 4]))
        np.testing.assert_allclose(out.data, w.data[[1, 4]])

    def test_2d_indices_shape(self, rng):
        w = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        assert embedding(w, np.zeros((2, 4), dtype=int)).shape == (2, 4, 3)

    def test_grad_accumulates_repeats(self):
        w = t(np.ones((3, 2)))
        out = embedding(w, np.array([0, 0, 2]))
        out.sum().backward()
        np.testing.assert_allclose(w.grad, [[2, 2], [0, 0], [1, 1]])

    def test_out_of_range_raises(self, rng):
        w = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
        with pytest.raises(ShapeError):
            embedding(w, np.array([3]))

    def test_float_indices_rejected(self, rng):
        w = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
        with pytest.raises(ShapeError):
            embedding(w, np.array([0.5]))


class TestPadding:
    def test_pad2d_shape(self):
        x = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
        assert pad2d(x, 2).shape == (1, 2, 7, 7)

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert pad2d(x, 0) is x

    def test_pad2d_grad(self, rng):
        x = t(rng.normal(size=(1, 2, 3, 3)))
        check_gradients(lambda ts: pad2d(ts[0], 1) * 2.0, [x])

    def test_pad_channels_shape_and_content(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
        out = pad_channels(x, 5)
        assert out.shape == (1, 5, 3, 3)
        np.testing.assert_allclose(out.data[:, :2], x.data)
        np.testing.assert_allclose(out.data[:, 2:], 0.0)

    def test_pad_channels_grad(self, rng):
        x = t(rng.normal(size=(1, 2, 3, 3)))
        check_gradients(lambda ts: pad_channels(ts[0], 4), [x])

    def test_pad_channels_down_raises(self):
        x = Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            pad_channels(x, 2)


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_on_exit(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (a * 2).requires_grad

    def test_no_grad_restores_after_exception(self):
        a = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert (a * 2).requires_grad

    def test_tensor_created_under_no_grad_has_no_grad(self):
        with no_grad():
            a = Tensor([1.0], requires_grad=True)
        assert not a.requires_grad
