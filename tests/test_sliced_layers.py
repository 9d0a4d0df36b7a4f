"""Unit tests for the sliced dense/conv/norm layers.

The load-bearing invariant throughout: ``Subnet-r_a`` is a *prefix* of
``Subnet-r_b`` for ``r_a < r_b`` (Eq. 2), so a narrow pass must equal the
corresponding prefix computation of the full weights.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.metrics import active_params
from repro.nn import Sequential
from repro.slicing import (
    MultiBatchNorm2d,
    SlicedBatchNorm2d,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
    slice_rate,
)
from repro.tensor import Tensor


def tensor(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float32))


class TestSlicedLinear:
    def test_full_rate_uses_all_weights(self, rng):
        layer = SlicedLinear(8, 6, slice_input=False, rng=rng)
        x = tensor(rng, 3, 8)
        expected = x.data @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(x).data, expected, rtol=1e-5)

    def test_sliced_output_width(self, rng):
        layer = SlicedLinear(8, 16, slice_input=False, rng=rng)
        with slice_rate(0.5):
            assert layer(tensor(rng, 2, 8)).shape == (2, 8)

    def test_narrow_output_is_prefix_of_full(self, rng):
        layer = SlicedLinear(8, 16, slice_input=False, rng=rng)
        x = tensor(rng, 2, 8)
        full = layer(x).data
        with slice_rate(0.5):
            narrow = layer(x).data
        np.testing.assert_allclose(narrow, full[:, :8], rtol=1e-5)

    def test_input_sliced_by_actual_width(self, rng):
        layer = SlicedLinear(8, 4, slice_output=False, rng=rng)
        with slice_rate(0.5):
            out = layer(tensor(rng, 2, 4))  # upstream produced 4 features
        assert out.shape == (2, 4)

    def test_unsliced_input_strict(self, rng):
        layer = SlicedLinear(8, 4, slice_input=False, rng=rng)
        with pytest.raises(ShapeError):
            layer(tensor(rng, 2, 4))

    def test_rescale_compensates_input_width(self, rng):
        layer = SlicedLinear(8, 4, slice_output=False, rescale=True,
                             bias=False, rng=rng)
        layer.weight.data[...] = 1.0
        x = Tensor(np.ones((1, 4), dtype=np.float32))
        out = layer(x)
        # 4 active inputs * rescale (8/4) == full-width sum of ones.
        np.testing.assert_allclose(out.data, 8.0)

    def test_active_param_count_quadratic(self, rng):
        model = Sequential(SlicedLinear(16, 16, rng=rng))
        full = active_params(model, 1.0)
        half = active_params(model, 0.5)
        assert full == 16 * 16 + 16
        assert half == 8 * 8 + 8

    def test_gradients_only_touch_active_prefix(self, rng):
        layer = SlicedLinear(8, 8, slice_input=False, rng=rng)
        x = tensor(rng, 2, 8)
        with slice_rate(0.5):
            layer(x).sum().backward()
        grad = layer.weight.grad
        assert np.abs(grad[:4]).sum() > 0
        np.testing.assert_allclose(grad[4:], 0.0)


class TestSlicedConv2d:
    def test_narrow_output_is_prefix_of_full(self, rng):
        layer = SlicedConv2d(3, 16, 3, padding=1, slice_input=False, rng=rng)
        x = tensor(rng, 2, 3, 6, 6)
        full = layer(x).data
        with slice_rate(0.25):
            narrow = layer(x).data
        np.testing.assert_allclose(narrow, full[:, :4], rtol=2e-4, atol=1e-5)

    def test_active_out_channels(self, rng):
        layer = SlicedConv2d(3, 16, 3, slice_input=False, rng=rng)
        assert layer.active_out_channels(0.5) == 8
        with slice_rate(0.25):
            assert layer.active_out_channels() == 4

    def test_input_follows_actual_channels(self, rng):
        layer = SlicedConv2d(16, 8, 3, padding=1, rng=rng)
        with slice_rate(0.5):
            out = layer(tensor(rng, 1, 8, 4, 4))
        assert out.shape == (1, 4, 4, 4)

    def test_unsliced_input_strict(self, rng):
        layer = SlicedConv2d(3, 8, 3, slice_input=False, rng=rng)
        with pytest.raises(ShapeError):
            layer(tensor(rng, 1, 2, 4, 4))

    def test_param_count_quadratic_scaling(self, rng):
        model = Sequential(SlicedConv2d(16, 16, 3, bias=False, rng=rng))
        assert active_params(model, 0.5) == 8 * 8 * 9
        assert active_params(model, 1.0) == 16 * 16 * 9


class TestSlicedGroupNorm:
    def test_full_width_normalizes(self, rng):
        gn = SlicedGroupNorm(8, num_groups=4)
        out = gn(tensor(rng, 3, 8, 5, 5)).data
        grouped = out.reshape(3, 4, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-4)

    def test_sliced_width_normalizes_surviving_groups(self, rng):
        gn = SlicedGroupNorm(8, num_groups=4)
        out = gn(tensor(rng, 3, 4, 5, 5)).data  # half width: 2 groups
        grouped = out.reshape(3, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-4)

    def test_narrow_equals_prefix_computation(self, rng):
        """The sliced GN on k groups matches GN applied to those channels."""
        gn = SlicedGroupNorm(8, num_groups=4)
        gn.weight.data[:] = rng.normal(size=8).astype(np.float32)
        gn.bias.data[:] = rng.normal(size=8).astype(np.float32)
        x = tensor(rng, 2, 4, 3, 3)
        out = gn(x).data
        # Manual per-group normalization of the same 4 channels.
        manual = np.empty_like(x.data)
        for g in range(2):
            block = x.data[:, g * 2:(g + 1) * 2]
            mean = block.reshape(2, -1).mean(axis=1).reshape(2, 1, 1, 1)
            var = block.reshape(2, -1).var(axis=1).reshape(2, 1, 1, 1)
            manual[:, g * 2:(g + 1) * 2] = (block - mean) / np.sqrt(var + 1e-5)
        manual = manual * gn.weight.data[:4].reshape(1, 4, 1, 1) \
            + gn.bias.data[:4].reshape(1, 4, 1, 1)
        np.testing.assert_allclose(out, manual, rtol=1e-3, atol=1e-4)

    def test_misaligned_width_raises(self, rng):
        gn = SlicedGroupNorm(8, num_groups=4)
        with pytest.raises(ShapeError):
            gn(tensor(rng, 2, 3, 3, 3))

    def test_indivisible_configuration_raises(self):
        with pytest.raises(ConfigError):
            SlicedGroupNorm(10, num_groups=4)

    def test_group_scale_means_shape(self):
        gn = SlicedGroupNorm(8, num_groups=4)
        assert gn.group_scale_means().shape == (4,)
        np.testing.assert_allclose(gn.group_scale_means(), 1.0)

    def test_active_param_count(self):
        model = Sequential(SlicedGroupNorm(8, num_groups=4))
        assert active_params(model, 1.0) == 16
        assert active_params(model, 0.5) == 8


class TestSlicedBatchNorm:
    def test_updates_only_active_stats(self, rng):
        bn = SlicedBatchNorm2d(8)
        bn(tensor(rng, 4, 4, 3, 3))  # half width
        assert not np.allclose(bn.running_mean[:4], 0.0)
        np.testing.assert_allclose(bn.running_mean[4:], 0.0)

    def test_eval_uses_prefix_stats(self, rng):
        bn = SlicedBatchNorm2d(8)
        for _ in range(10):
            bn(tensor(rng, 8, 4, 3, 3))
        bn.eval()
        out = bn(tensor(rng, 2, 4, 3, 3))
        assert out.shape == (2, 4, 3, 3)

    def test_state_roundtrip(self, rng):
        bn = SlicedBatchNorm2d(4)
        bn(tensor(rng, 4, 4, 3, 3))
        fresh = SlicedBatchNorm2d(4)
        fresh.load_state_dict(bn.state_dict())
        np.testing.assert_allclose(fresh.running_var, bn.running_var)


class TestMultiBatchNorm:
    def test_dispatches_on_rate(self, rng):
        mbn = MultiBatchNorm2d(8, rates=[0.5, 1.0], num_groups=8)
        with slice_rate(0.5):
            out = mbn(tensor(rng, 4, 4, 3, 3))
        assert out.shape == (4, 4, 3, 3)
        out = mbn(tensor(rng, 4, 8, 3, 3))
        assert out.shape == (4, 8, 3, 3)

    def test_separate_running_stats(self, rng):
        mbn = MultiBatchNorm2d(8, rates=[0.5, 1.0], num_groups=8)
        with slice_rate(0.5):
            mbn(tensor(rng, 4, 4, 3, 3) + 5.0)
        half_bn = getattr(mbn, "bn_0_5000")
        full_bn = getattr(mbn, "bn_1_0000")
        assert not np.allclose(half_bn.running_mean, 0.0)
        np.testing.assert_allclose(full_bn.running_mean, 0.0)

    def test_unconfigured_rate_raises(self, rng):
        mbn = MultiBatchNorm2d(8, rates=[0.5, 1.0], num_groups=8)
        with slice_rate(0.75):
            with pytest.raises(ShapeError):
                mbn(tensor(rng, 2, 6, 3, 3))

    def test_needs_rates(self):
        with pytest.raises(ConfigError):
            MultiBatchNorm2d(8, rates=[])

    def test_rates_sharing_a_width_rejected(self):
        # 0.25 and 0.5 both give 4 of 8 channels in 2 groups: the BN to
        # run would be ambiguous, since dispatch goes by arriving width.
        with pytest.raises(ConfigError, match="both give width 4"):
            MultiBatchNorm2d(8, rates=[0.25, 0.5, 1.0], num_groups=2)

    def test_dispatches_on_arriving_width(self, rng):
        # The rate in scope does not choose the BN; the input width does.
        mbn = MultiBatchNorm2d(8, rates=[0.5, 1.0], num_groups=8)
        mbn(tensor(rng, 4, 4, 3, 3) + 5.0)
        assert not np.allclose(mbn.bn_0_5000.running_mean, 0.0)
        np.testing.assert_allclose(mbn.bn_1_0000.running_mean, 0.0)
