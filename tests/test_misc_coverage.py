"""Tests for remaining public surfaces: paper-size factories, slimmable
ResNet, and assorted small helpers."""

import numpy as np

from repro.baselines import slimmable_resnet
from repro.models import SlicedResNet, SlicedVGG
from repro.slicing import slice_rate
from repro.tensor import Tensor, no_grad


class TestPaperSizeFactories:
    def test_vgg16_structure(self):
        model = SlicedVGG.vgg16(num_classes=1000)
        assert model.num_classes == 1000
        # ImageNet plan: 5 stages of 3 convs.
        assert len(model.plan) == 5
        assert all(n == 3 for _, n in model.plan)

    def test_vgg16_conv_tower_params(self):
        # Conv tower of VGG-16 is ~14.7M parameters (the paper's 138M
        # includes the FC-4096 head we replace with global pooling).
        model = SlicedVGG.vgg16()
        assert 10e6 < model.num_parameters() < 20e6

    def test_resnet50_style_forward(self, rng):
        """A bottleneck ResNet at ImageNet-ish depth runs end to end."""
        model = SlicedResNet([3, 4, 6], base_channels=8, num_classes=10)
        x = Tensor(rng.normal(size=(1, 3, 16, 16)).astype(np.float32))
        with no_grad():
            with slice_rate(0.5):
                out = model(x)
        assert out.shape == (1, 10)


class TestSlimmableResnet:
    def test_factory_builds_multi_bn(self, rng):
        from repro.slicing import MultiBatchNorm2d
        model = slimmable_resnet([0.5, 1.0], num_classes=4, blocks=1,
                                 base_channels=8)
        assert any(isinstance(m, MultiBatchNorm2d) for m in model.modules())
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        with no_grad():
            with slice_rate(0.5):
                assert model(x).shape == (2, 4)


class TestMultiClassifierBoundaries:
    def test_last_exit_equals_forward_tail(self, rng):
        from repro.baselines import MultiClassifierResNet
        backbone = SlicedResNet.cifar_mini(num_classes=4, blocks=1,
                                           base_channels=8)
        model = MultiClassifierResNet(backbone)
        model.eval()
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        with no_grad():
            all_exits = model(x)
            last_only = model.forward_exit(x, model.num_exits - 1)
        np.testing.assert_allclose(last_only.data,
                                   all_exits[-1].data, rtol=1e-5)

    def test_custom_loss_weights(self):
        from repro.baselines import MultiClassifierResNet
        backbone = SlicedResNet.cifar_mini(num_classes=4, blocks=1,
                                           base_channels=8)
        model = MultiClassifierResNet(backbone, loss_weights=[2.0, 1.0])
        assert model.loss_weights == [2.0, 1.0]


class TestCostTableHelpers:
    def test_format_table_handles_mixed_types(self):
        from repro.utils import format_table
        text = format_table(["a", "b"], [[1, None], [0.5, "x"]])
        # None renders as "-" (absent measurement), not "None".
        assert "None" not in text
        assert "-" in text and "0.5" in text

    def test_flop_counter_by_kind_totals(self):
        from repro.tensor import Tensor, count_flops
        a = Tensor(np.zeros((3, 3), dtype=np.float32))
        with count_flops() as fc:
            a @ a
            a @ a
        assert fc.by_kind["matmul"] == fc.total == 2 * 27
