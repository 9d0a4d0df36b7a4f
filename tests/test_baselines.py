"""Unit tests for the baseline implementations (tiny configs)."""

import numpy as np
import pytest

from repro.baselines import (
    FixedWidthEnsemble,
    MSDNetLike,
    MultiClassifierResNet,
    SkipNetLike,
    VaryingDepthEnsemble,
    l1_scale_penalty,
    prune_vgg,
    slimmable_trainer,
    slimmable_vgg,
    sparsity_loss_fn,
)
from repro.data import ArrayDataset, DataLoader
from repro.errors import ConfigError
from repro.models import MLP, SlicedResNet, SlicedVGG
from repro.optim import SGD
from repro.tensor import Tensor


def image_data(rng, n=32, size=8, classes=4):
    x = rng.normal(size=(n, 3, size, size)).astype(np.float32)
    y = rng.integers(0, classes, size=n)
    return ArrayDataset(x, y)


class TestFixedWidthEnsemble:
    def test_trains_one_member_per_rate(self, rng):
        ensemble = FixedWidthEnsemble(
            lambda seed: MLP(6, [8], 3, seed=seed), rates=[0.5, 1.0])
        data = ArrayDataset(rng.normal(size=(16, 6)).astype(np.float32),
                            rng.integers(0, 3, size=16))
        ensemble.train(lambda m: SGD(m.parameters(), lr=0.1),
                       lambda: DataLoader(data, 8), epochs=1)
        assert set(ensemble.members) == {0.5, 1.0}
        results = ensemble.evaluate(lambda: DataLoader(data, 8))
        assert 0.0 <= results[0.5]["accuracy"] <= 1.0

    def test_member_for_budget(self):
        ensemble = FixedWidthEnsemble(lambda s: MLP(4, [8], 2),
                                      rates=[0.25, 0.5, 1.0])
        assert ensemble.member_for_budget(30, 100) == 0.5

    def test_predict_uses_member(self, rng):
        ensemble = FixedWidthEnsemble(
            lambda seed: MLP(6, [8], 3, seed=seed), rates=[0.5])
        data = ArrayDataset(rng.normal(size=(8, 6)).astype(np.float32),
                            rng.integers(0, 3, size=8))
        ensemble.train(lambda m: SGD(m.parameters(), lr=0.1),
                       lambda: DataLoader(data, 8), epochs=1)
        logits = ensemble.predict(0.5, data.inputs)
        assert logits.shape == (8, 3)

    def test_empty_rates_rejected(self):
        with pytest.raises(ConfigError):
            FixedWidthEnsemble(lambda s: MLP(4, [8], 2), rates=[])


class TestVaryingDepthEnsemble:
    def test_members_trained_and_evaluated(self, rng):
        data = image_data(rng)
        ensemble = VaryingDepthEnsemble({
            "shallow": lambda s: SlicedResNet.cifar_mini(
                num_classes=4, blocks=1, base_channels=8, seed=s),
        })
        ensemble.train(lambda m: SGD(m.parameters(), lr=0.05),
                       lambda: DataLoader(data, 16), epochs=1)
        results = ensemble.evaluate(lambda: DataLoader(data, 16))
        assert "shallow" in results

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            VaryingDepthEnsemble({})


class TestMultiClassifier:
    def make(self, rng, adaptive=False):
        backbone = SlicedResNet.cifar_mini(num_classes=4, blocks=1,
                                           base_channels=8)
        cls = MSDNetLike if adaptive else MultiClassifierResNet
        return cls(backbone), image_data(rng)

    def test_forward_returns_all_exits(self, rng):
        model, data = self.make(rng)
        exits = model(Tensor(data.inputs[:4]))
        assert len(exits) == model.num_exits == 2
        for logits in exits:
            assert logits.shape == (4, 4)

    def test_forward_exit_prefix_cheaper(self, rng):
        from repro.tensor import count_flops
        model, data = self.make(rng)
        x = Tensor(data.inputs[:1])
        with count_flops() as early:
            model.forward_exit(x, 0)
        with count_flops() as late:
            model.forward_exit(x, 1)
        assert early.total < late.total

    def test_joint_loss_backward(self, rng):
        model, data = self.make(rng)
        exits = model(Tensor(data.inputs[:8]))
        loss = model.joint_loss(exits, data.targets[:8])
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads

    def test_adaptive_weights_update(self, rng):
        model, _ = self.make(rng, adaptive=True)
        model.update_weights([2.0, 1.0])
        assert model.loss_weights[1] > model.loss_weights[0]
        assert sum(model.loss_weights) == pytest.approx(2.0)


class TestSkipNet:
    def test_soft_and_hard_forward(self, rng):
        backbone = SlicedResNet.cifar_mini(num_classes=4, blocks=2,
                                           base_channels=8)
        model = SkipNetLike(backbone, skip_penalty=0.1)
        data = image_data(rng)
        x = Tensor(data.inputs[:4])
        model.train()
        logits, gates = model(x, hard=False)
        assert logits.shape == (4, 4)
        model.eval()
        logits, decisions = model(x, hard=True)
        assert logits.shape == (4, 4)
        assert all(d in (0.0, 1.0) for d in decisions)

    def test_loss_includes_penalty_and_backprops(self, rng):
        backbone = SlicedResNet.cifar_mini(num_classes=4, blocks=2,
                                           base_channels=8)
        model = SkipNetLike(backbone, skip_penalty=0.1)
        data = image_data(rng)
        loss = model.loss(Tensor(data.inputs[:8]), data.targets[:8])
        loss.backward()
        gate_params = [p for p in model.gates.parameters()
                       if p.grad is not None]
        assert gate_params

    def test_execution_fraction_in_unit_interval(self, rng):
        backbone = SlicedResNet.cifar_mini(num_classes=4, blocks=2,
                                           base_channels=8)
        model = SkipNetLike(backbone)
        data = image_data(rng)
        frac = model.execution_fraction(Tensor(data.inputs[:8]))
        assert 0.0 <= frac <= 1.0


class TestNetworkSlimming:
    def test_l1_penalty_positive(self):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8)
        assert l1_scale_penalty(model).item() > 0

    def test_l1_penalty_requires_groupnorm(self):
        with pytest.raises(ConfigError):
            l1_scale_penalty(MLP(4, [8], 2))

    def test_sparsity_loss_exceeds_plain(self, rng):
        from repro.tensor import cross_entropy
        model = SlicedVGG.cifar_mini(num_classes=4, width=8)
        data = image_data(rng, size=8)
        logits = model(Tensor(data.inputs[:4]))
        plain = cross_entropy(logits, data.targets[:4]).item()
        loss = sparsity_loss_fn(model, 1e-2)(logits, data.targets[:4])
        assert loss.item() > plain

    def test_prune_reduces_params_and_runs(self, rng):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8)
        pruned = prune_vgg(model, keep_fraction=0.5)
        assert pruned.num_parameters() < model.num_parameters()
        data = image_data(rng, size=8)
        out = pruned(Tensor(data.inputs[:4]))
        assert out.shape == (4, 4)

    def test_prune_full_keep_preserves_function(self, rng):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8)
        model.eval()
        pruned = prune_vgg(model, keep_fraction=1.0)
        pruned.eval()
        data = image_data(rng, size=8)
        x = Tensor(data.inputs[:4])
        np.testing.assert_allclose(pruned(x).data, model(x).data,
                                   rtol=1e-3, atol=1e-4)

    def test_invalid_keep_fraction(self):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8)
        with pytest.raises(ConfigError):
            prune_vgg(model, 0.0)


class TestSlimmable:
    def test_factory_uses_multi_bn(self):
        from repro.slicing import MultiBatchNorm2d
        model = slimmable_vgg(rates=[0.5, 1.0], num_classes=4, width=8)
        assert any(isinstance(m, MultiBatchNorm2d) for m in model.modules())

    def test_trainer_uses_static_scheme(self, rng):
        from repro.slicing import StaticScheme
        model = slimmable_vgg(rates=[0.5, 1.0], num_classes=4, width=8)
        trainer = slimmable_trainer(model, [0.5, 1.0], lr=0.05)
        assert isinstance(trainer.scheme, StaticScheme)
        data = image_data(rng, size=8)
        losses = trainer.train_batch(data.inputs[:8], data.targets[:8])
        assert set(losses) == {0.5, 1.0}
