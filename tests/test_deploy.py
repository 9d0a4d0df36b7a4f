"""Unit tests for materialize_subnet: standalone deployment of a subnet."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.metrics import active_params
from repro.models import MLP, NNLM, SlicedResNet, SlicedVGG
from repro.slicing import compile_plan, materialize_subnet, slice_rate
from repro.tensor import Tensor, no_grad


def images(rng, n=3, size=8):
    return rng.normal(size=(n, 3, size, size)).astype(np.float32)


class TestMaterializeMLP:
    def test_outputs_match_sliced_model(self, rng):
        model = MLP(10, [16, 16], 4, seed=0)
        deployed = materialize_subnet(model, 0.5)
        x = rng.normal(size=(5, 10)).astype(np.float32)
        with no_grad():
            with slice_rate(0.5):
                expected = model(Tensor(x)).data
            actual = deployed(Tensor(x)).data
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-5)

    def test_deployed_params_match_active_count(self):
        model = MLP(10, [16, 16], 4, seed=0)
        deployed = materialize_subnet(model, 0.25)
        assert deployed.num_parameters() == active_params(model, 0.25)

    def test_deployed_ignores_slice_context(self, rng):
        model = MLP(10, [16], 4, seed=0)
        deployed = materialize_subnet(model, 0.5)
        x = rng.normal(size=(2, 10)).astype(np.float32)
        with no_grad():
            base = deployed(Tensor(x)).data
            with slice_rate(0.25):  # must have no effect on plain layers
                same = deployed(Tensor(x)).data
        np.testing.assert_allclose(base, same)

    def test_original_model_untouched(self):
        model = MLP(10, [16], 4, seed=0)
        before = model.num_parameters()
        materialize_subnet(model, 0.5)
        assert model.num_parameters() == before

    def test_full_rate_preserves_function(self, rng):
        model = MLP(10, [16], 4, seed=0)
        deployed = materialize_subnet(model, 1.0)
        x = rng.normal(size=(3, 10)).astype(np.float32)
        with no_grad():
            np.testing.assert_allclose(deployed(Tensor(x)).data,
                                       model(Tensor(x)).data,
                                       rtol=1e-4, atol=1e-5)


class TestMaterializeVGG:
    def test_outputs_match(self, rng):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     seed=0)
        model.eval()
        deployed = materialize_subnet(model, 0.5)
        deployed.eval()
        x = Tensor(images(rng))
        with no_grad():
            with slice_rate(0.5):
                expected = model(x).data
            actual = deployed(x).data
        np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-4)

    def test_deployed_smaller(self):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2)
        deployed = materialize_subnet(model, 0.25)
        assert deployed.num_parameters() < 0.3 * model.num_parameters()

    def test_multi_bn_vgg_materializes(self, rng):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     norm="multi_bn", rates=[0.5, 1.0])
        model.eval()
        deployed = materialize_subnet(model, 0.5)
        deployed.eval()
        with no_grad():
            out = deployed(Tensor(images(rng)))
        assert out.shape == (3, 4)

    def test_naive_bn_vgg_rejected(self):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     norm="batch")
        with pytest.raises(ConfigError):
            materialize_subnet(model, 0.5)
        # Not deployable, but its subnets still have a size.
        assert active_params(model, 0.5) == \
            compile_plan(model, 0.5).param_bytes() // 4


class TestMaterializeResNet:
    def test_outputs_match(self, rng):
        model = SlicedResNet.cifar_mini(num_classes=4, blocks=1,
                                        base_channels=8, seed=0)
        model.eval()
        x = Tensor(images(rng, size=8))
        for rate in (0.25, 0.5, 0.75, 1.0):
            deployed = materialize_subnet(model, rate)
            deployed.eval()
            with no_grad():
                with slice_rate(rate):
                    expected = model(x).data
                actual = deployed(x).data
            np.testing.assert_allclose(actual, expected, rtol=1e-3,
                                       atol=1e-4, err_msg=f"rate {rate}")
            assert deployed.num_parameters() == active_params(model, rate)


class TestMaterializeNNLM:
    def test_outputs_match(self, rng):
        model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8, seed=0)
        model.eval()
        deployed = materialize_subnet(model, 0.5)
        deployed.eval()
        tokens = rng.integers(0, 20, size=(4, 2))
        with no_grad():
            with slice_rate(0.5):
                expected = model(tokens).data
            actual = deployed(tokens).data
        np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-4)


class TestRateEquivalenceAfterTraining:
    """materialize_subnet must agree with the sliced forward at *every*
    trained rate — this guards the group-norm width rule of
    ``compile_layer`` against ``Partition.width_for`` drift."""

    RATES = [0.25, 0.5, 0.75, 1.0]

    def _fit_briefly(self, model, loader, rng):
        from repro.optim import SGD
        from repro.slicing import RandomStaticScheme, SliceTrainer
        trainer = SliceTrainer(
            model, RandomStaticScheme(self.RATES, num_random=1),
            SGD(model.parameters(), lr=0.05, momentum=0.9), rng=rng)
        trainer.fit(lambda: loader, epochs=1)

    def test_groupnorm_cnn_every_rate(self, rng):
        from repro.data import ArrayDataset, DataLoader
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     seed=0)  # default norm="group"
        x_train = rng.normal(size=(32, 3, 8, 8)).astype(np.float32)
        y_train = rng.integers(0, 4, size=32)
        self._fit_briefly(model, DataLoader(ArrayDataset(x_train, y_train),
                                            16), np.random.default_rng(0))
        model.eval()
        x = Tensor(images(rng, n=4))
        for rate in self.RATES:
            deployed = materialize_subnet(model, rate)
            deployed.eval()
            with no_grad():
                with slice_rate(rate):
                    expected = model(x).data
                actual = deployed(x).data
            np.testing.assert_allclose(actual, expected, rtol=1e-3,
                                       atol=1e-4,
                                       err_msg=f"rate {rate} diverged")

    def test_lstm_nnlm_every_rate(self, rng):
        from repro.optim import SGD
        model = NNLM(vocab_size=30, embed_dim=8, hidden_size=8, seed=0)
        optimizer = SGD(model.parameters(), lr=0.1)
        tokens = rng.integers(0, 30, size=(8, 6))
        next_tokens = rng.integers(0, 30, size=(8, 6))
        model.train()
        for _ in range(3):  # a few steps over every rate
            for rate in self.RATES:
                optimizer.zero_grad()
                with slice_rate(rate):
                    loss = model.sequence_nll(tokens, next_tokens)
                loss.backward()
                optimizer.step()
        model.eval()
        probe = rng.integers(0, 30, size=(5, 3))
        for rate in self.RATES:
            deployed = materialize_subnet(model, rate)
            deployed.eval()
            with no_grad():
                with slice_rate(rate):
                    expected = model(probe).data
                actual = deployed(probe).data
            np.testing.assert_allclose(actual, expected, rtol=1e-3,
                                       atol=1e-4,
                                       err_msg=f"rate {rate} diverged")

    def test_deployed_predictions_identical_to_sliced(self, rng):
        """The runtime serves artifacts interchangeably with the model:
        argmax predictions must agree exactly."""
        model = MLP(12, [32, 32], 4, seed=0)
        x = rng.normal(size=(20, 12)).astype(np.float32)
        for rate in self.RATES:
            deployed = materialize_subnet(model, rate)
            with no_grad():
                with slice_rate(rate):
                    sliced_pred = model(Tensor(x)).data.argmax(axis=-1)
                deployed_pred = deployed(Tensor(x)).data.argmax(axis=-1)
            np.testing.assert_array_equal(deployed_pred, sliced_pred)


class TestErrors:
    def test_no_sliceable_layers_rejected(self):
        from repro.nn import Linear, Sequential
        with pytest.raises(ConfigError):
            materialize_subnet(Sequential(Linear(4, 4)), 0.5)

    def test_invalid_rate_rejected(self):
        model = MLP(4, [8], 2)
        with pytest.raises(Exception):
            materialize_subnet(model, 0.0)
