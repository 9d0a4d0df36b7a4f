"""Unit tests for upgrade_model (Algorithm 1 step 0) and incremental
widening (Sec. 3.5 computation reuse)."""

import numpy as np
import pytest

from repro.errors import ConfigError, SliceRateError
from repro.models import MLP, NNLM, SlicedVGG
from repro.nn import BatchNorm2d, Conv2d, Linear, ReLU, Sequential
from repro.slicing import (
    LayerProfile,
    MultiBatchNorm2d,
    ResumablePlan,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
    materialize_subnet,
    scratch_madds,
    slice_profile,
    slice_rate,
    upgrade_model,
)
from repro.tensor import Tensor, no_grad


def plain_mlp(rng):
    return Sequential(
        Linear(6, 8, rng=rng), ReLU(),
        Linear(8, 8, rng=rng), ReLU(),
        Linear(8, 3, rng=rng),
    )


def plain_cnn(rng):
    return Sequential(
        Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(8), ReLU(),
        Conv2d(8, 8, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(8), ReLU(),
    )


class TestUpgradeModel:
    def test_linear_layers_replaced_weights_copied(self, rng):
        plain = plain_mlp(rng)
        reference = plain[0].weight.data.copy()
        upgraded = upgrade_model(plain)
        assert isinstance(upgraded[0], SlicedLinear)
        np.testing.assert_allclose(upgraded[0].weight.data, reference)

    def test_first_layer_input_not_sliced(self, rng):
        upgraded = upgrade_model(plain_mlp(rng))
        assert not upgraded[0].slice_input
        assert upgraded[2].slice_input

    def test_last_linear_output_not_sliced(self, rng):
        upgraded = upgrade_model(plain_mlp(rng))
        assert not upgraded[4].slice_output
        assert upgraded[0].slice_output

    def test_upgraded_model_runs_at_any_rate(self, rng):
        upgraded = upgrade_model(plain_mlp(rng))
        x = Tensor(rng.normal(size=(2, 6)).astype(np.float32))
        full = upgraded(x)
        with slice_rate(0.5):
            narrow = upgraded(x)
        assert full.shape == narrow.shape == (2, 3)

    def test_full_rate_preserves_function(self, rng):
        plain = plain_mlp(rng)
        x = Tensor(rng.normal(size=(2, 6)).astype(np.float32))
        before = plain(x).data.copy()
        upgraded = upgrade_model(plain)
        np.testing.assert_allclose(upgraded(x).data, before, rtol=1e-5)

    def test_cnn_batchnorm_becomes_groupnorm(self, rng):
        upgraded = upgrade_model(plain_cnn(rng))
        assert isinstance(upgraded[0], SlicedConv2d)
        assert isinstance(upgraded[1], SlicedGroupNorm)

    def test_cnn_multi_bn_upgrade(self, rng):
        upgraded = upgrade_model(plain_cnn(rng), rates=[0.5, 1.0],
                                 norm="multi_bn")
        assert isinstance(upgraded[1], MultiBatchNorm2d)

    def test_multi_bn_requires_rates(self, rng):
        with pytest.raises(ConfigError):
            upgrade_model(plain_cnn(rng), norm="multi_bn")

    def test_unknown_norm_rejected(self, rng):
        with pytest.raises(ConfigError):
            upgrade_model(plain_cnn(rng), norm="layer")

    def test_model_without_transforms_rejected(self):
        with pytest.raises(ConfigError):
            upgrade_model(Sequential(ReLU()))


class TestIncrementalWidening:
    """Sec. 3.5 reuse through ``ResumablePlan(exact=False)``.

    One hidden layer: its input is never sliced, so widening leaves the
    head's cached input block a true prefix — the case where reusing
    ``ya`` is exact (up to float rounding).
    """

    def make_mlp(self, rescale=False):
        return MLP(16, [16], 4, rescale=rescale, seed=0)

    @staticmethod
    def direct(model, x, rate):
        with no_grad(), slice_rate(rate):
            return model(Tensor(x)).data

    def narrow_plan(self, model, x, rate=0.5):
        plan = ResumablePlan(model, rate, exact=False)
        plan.run(x)
        return plan

    def test_exact_widening_matches_direct(self, rng):
        model = self.make_mlp()
        x = rng.normal(size=(4, 16)).astype(np.float32)
        widened = self.narrow_plan(model, x).widen(1.0, exact=True)
        np.testing.assert_allclose(widened, self.direct(model, x, 1.0),
                                   rtol=1e-4, atol=1e-5)

    def test_approximate_widening_matches_when_inputs_prefix(self, rng):
        """With the narrow input a true prefix, ya reuse is exact."""
        model = self.make_mlp()
        x = rng.normal(size=(4, 16)).astype(np.float32)
        approx = self.narrow_plan(model, x).widen(1.0)
        np.testing.assert_allclose(approx, self.direct(model, x, 1.0),
                                   rtol=1e-4, atol=1e-5)

    def test_approximate_widening_with_rescale(self, rng):
        model = self.make_mlp(rescale=True)
        x = rng.normal(size=(4, 16)).astype(np.float32)
        approx = self.narrow_plan(model, x).widen(1.0)
        np.testing.assert_allclose(approx, self.direct(model, x, 1.0),
                                   rtol=1e-3, atol=1e-4)

    def test_flops_saved_vs_full_recompute(self, rng):
        model = self.make_mlp()
        x = rng.normal(size=(4, 16)).astype(np.float32)
        plan = self.narrow_plan(model, x)
        before = plan.spent_madds
        plan.widen(1.0)
        assert plan.spent_madds - before == \
            scratch_madds(model, 1.0, 4) - scratch_madds(model, 0.5, 4)

    def test_cannot_widen_downward(self, rng):
        model = self.make_mlp()
        x = rng.normal(size=(2, 16)).astype(np.float32)
        plan = self.narrow_plan(model, x, rate=1.0)
        with pytest.raises(SliceRateError):
            plan.widen(0.5)

    def test_same_rate_widening_is_identity(self, rng):
        model = self.make_mlp()
        x = rng.normal(size=(2, 16)).astype(np.float32)
        plan = self.narrow_plan(model, x)
        narrow = plan.output
        before = plan.spent_madds
        again = plan.widen(0.5)
        np.testing.assert_allclose(again, narrow, rtol=1e-5)
        assert plan.spent_madds == before


class TestResumeFallback:
    """Resume-or-recompute fallback for conv and recurrent stacks.

    Dense layers widen by pure column extension, but the fallback rules
    differ elsewhere: a convolution extends by output channels only
    while its input is untouched and recomputes otherwise, and an LSTM
    cell grafts its cached per-gate input projections yet always
    replays the recurrence (the hidden trajectory and the rescale
    depend on the hidden width).  Each widened result is pinned three
    ways: against a from-scratch resumable pass (bitwise), the live
    sliced forward, and the materialized subnet.
    """

    def vgg(self):
        return SlicedVGG([(8, 1), (8, 1)], in_channels=3, num_classes=4,
                         seed=5)

    def nnlm(self):
        return NNLM(vocab_size=20, embed_dim=8, hidden_size=8,
                    num_layers=2, seed=6)

    @staticmethod
    def _arg(x):
        arr = np.asarray(x)
        return arr if arr.dtype.kind in "iu" else Tensor(x)

    def _three_way(self, model, inputs, chained, profile,
                   rtol=1e-4, atol=1e-5):
        scratch = ResumablePlan(model, profile, exact=True).run(inputs)
        np.testing.assert_array_equal(chained, scratch)
        model.eval()
        with no_grad(), slice_profile(profile):
            live = model(self._arg(inputs)).data
        np.testing.assert_allclose(chained, live, rtol=rtol, atol=atol,
                                   err_msg="widened vs live forward")
        deployed = materialize_subnet(model, profile)
        deployed.eval()
        with no_grad():
            deployed_out = deployed(self._arg(inputs)).data
        np.testing.assert_allclose(chained, deployed_out, rtol=rtol,
                                   atol=atol,
                                   err_msg="widened vs materialized")

    def test_conv_channel_extension_three_way(self, rng):
        """conv0 grows, conv1's input changes -> extend then recompute."""
        model = self.vgg()
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        narrow = LayerProfile({"conv0": 0.5, "conv1": 0.5, "head": 0.5},
                              default=0.5)
        wide = LayerProfile({"conv0": 1.0, "conv1": 0.5, "head": 0.75},
                            default=1.0)
        plan = ResumablePlan(model, narrow, exact=True)
        plan.run(x)
        chained = plan.widen(wide)
        report = {r["name"]: r for r in plan.last_report}
        # conv0: clean channel extension — cheaper than from-scratch.
        assert 0 < report["conv0"]["spent"] < report["conv0"]["full"]
        # conv1: its input gained channels, so reuse is unjustifiable
        # and the fallback recomputes at full cost.
        assert report["conv1"]["spent"] == report["conv1"]["full"] > 0
        assert not report["conv1"]["reused"]
        self._three_way(model, x, chained, wide)

    def test_conv_untouched_prefix_is_reused(self, rng):
        """Only conv1 grows: conv0 and its norm are served from cache."""
        model = self.vgg()
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        narrow = LayerProfile({"conv1": 0.5}, default=1.0)
        wide = LayerProfile({"conv1": 1.0}, default=1.0)
        plan = ResumablePlan(model, narrow, exact=True)
        plan.run(x)
        chained = plan.widen(wide)
        report = {r["name"]: r for r in plan.last_report}
        assert report["conv0"]["reused"] and report["conv0"]["spent"] == 0
        assert 0 < report["conv1"]["spent"] < report["conv1"]["full"]
        self._three_way(model, x, chained, wide)

    def test_lstm_recurrence_always_replays(self, rng):
        """Hidden growth grafts projections but replays the recurrence."""
        model = self.nnlm()
        tokens = rng.integers(0, 20, size=(5, 3))
        narrow = LayerProfile({"lstm.cell0": 0.5, "lstm.cell1": 0.5,
                               "decoder": 0.5}, default=0.5)
        wide = LayerProfile({"lstm.cell0": 1.0, "lstm.cell1": 0.5,
                             "decoder": 0.5}, default=1.0)
        plan = ResumablePlan(model, narrow, exact=True)
        plan.run(tokens)
        chained = plan.widen(wide)
        report = {r["name"]: r for r in plan.last_report}
        lstm = report["lstm"]
        # The input projections resumed (spent < full), but the replayed
        # recurrence keeps the cost strictly positive even though cell1
        # kept its width (its input widened underneath it).
        assert 0 < lstm["spent"] < lstm["full"]
        self._three_way(model, tokens, chained, wide,
                        rtol=1e-3, atol=1e-4)

    def test_lstm_untouched_prefix_reused_decoder_recomputes(self, rng):
        """Only cell1 grows: cell0 serves its cached sequence, and the
        decoder — whose input just widened — falls back to recompute."""
        model = self.nnlm()
        tokens = rng.integers(0, 20, size=(4, 2))
        narrow = LayerProfile({"lstm.cell1": 0.5}, default=1.0)
        wide = LayerProfile({"lstm.cell1": 1.0}, default=1.0)
        plan = ResumablePlan(model, narrow, exact=True)
        plan.run(tokens)
        chained = plan.widen(wide)
        report = {r["name"]: r for r in plan.last_report}
        # cell0 reused its whole sequence, so the stack spends less
        # than from-scratch, but cell1's replayed recurrence keeps it
        # positive; the decoder cannot reuse across a width change.
        assert 0 < report["lstm"]["spent"] < report["lstm"]["full"]
        assert report["decoder"]["spent"] == report["decoder"]["full"] > 0
        assert not report["decoder"]["reused"]
        self._three_way(model, tokens, chained, wide,
                        rtol=1e-3, atol=1e-4)
