"""Unit tests for the sliced recurrent cells and the sliced LSTM stack."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.metrics import active_params
from repro.nn import Sequential
from repro.slicing import (
    SlicedGRUCell,
    SlicedLSTM,
    SlicedLSTMCell,
    SlicedRNNCell,
    slice_rate,
)
from repro.tensor import Tensor


def tensor(rng, *shape):
    return Tensor(rng.normal(size=shape).astype(np.float32))


class TestSlicedRNNCell:
    def test_hidden_width_follows_rate(self, rng):
        cell = SlicedRNNCell(8, 16, slice_input=False, rng=rng)
        with slice_rate(0.5):
            assert cell(tensor(rng, 3, 8)).shape == (3, 16 // 2)

    def test_full_rate_matches_manual(self, rng):
        cell = SlicedRNNCell(4, 6, slice_input=False, rng=rng)
        x = tensor(rng, 2, 4)
        out = cell(x).data
        manual = np.tanh(x.data @ cell.weight_ih.data.T + cell.bias.data)
        np.testing.assert_allclose(out, manual, rtol=1e-5)

    def test_unsliced_input_checked(self, rng):
        cell = SlicedRNNCell(8, 16, slice_input=False, rng=rng)
        with pytest.raises(ShapeError):
            cell(tensor(rng, 2, 4))

    def test_param_count(self, rng):
        model = Sequential(SlicedRNNCell(8, 16, slice_input=False, rng=rng))
        assert active_params(model, 1.0) == 16 * 8 + 16 * 16 + 16
        assert active_params(model, 0.5) == 8 * 8 + 8 * 8 + 8


class TestSlicedLSTMCell:
    def test_state_widths_follow_rate(self, rng):
        cell = SlicedLSTMCell(8, 16, slice_input=False, rng=rng)
        with slice_rate(0.25):
            h, c = cell(tensor(rng, 3, 8))
        assert h.shape == (3, 4)
        assert c.shape == (3, 4)

    def test_carried_state_width_checked(self, rng):
        cell = SlicedLSTMCell(8, 16, slice_input=False, rng=rng)
        h, c = cell(tensor(rng, 2, 8))  # full width state
        with slice_rate(0.5):
            with pytest.raises(ShapeError):
                cell(tensor(rng, 2, 8), (h, c))

    def test_narrow_state_is_consistent_across_steps(self, rng):
        cell = SlicedLSTMCell(8, 16, slice_input=False, rng=rng)
        with slice_rate(0.5):
            state = cell(tensor(rng, 2, 8))
            state = cell(tensor(rng, 2, 8), state)
        assert state[0].shape == (2, 8)

    def test_forget_bias(self, rng):
        cell = SlicedLSTMCell(4, 8, slice_input=False, rng=rng,
                              forget_bias=2.0)
        np.testing.assert_allclose(cell.bias_f.data, 2.0)
        np.testing.assert_allclose(cell.bias_i.data, 0.0)

    def test_param_count_gates(self, rng):
        model = Sequential(SlicedLSTMCell(8, 8, slice_input=False, rng=rng))
        assert active_params(model, 1.0) == 4 * (8 * 8 + 8 * 8 + 8)

    def test_rescale_keeps_preactivation_scale(self, rng):
        cell = SlicedLSTMCell(8, 32, slice_input=False, rescale=True, rng=rng)
        x = tensor(rng, 64, 8)
        _, c_full = cell(x)
        with slice_rate(0.25):
            _, c_small = cell(x)
        # Rescaling keeps magnitudes in the same ballpark across widths.
        ratio = np.abs(c_small.data).mean() / np.abs(c_full.data).mean()
        assert 0.3 < ratio < 3.0


class TestSlicedGRUCell:
    def test_width_follows_rate(self, rng):
        cell = SlicedGRUCell(8, 16, slice_input=False, rng=rng)
        with slice_rate(0.5):
            assert cell(tensor(rng, 2, 8)).shape == (2, 8)

    def test_param_count_gates(self, rng):
        model = Sequential(SlicedGRUCell(8, 8, slice_input=False, rng=rng))
        assert active_params(model, 1.0) == 3 * (8 * 8 + 8 * 8 + 8)


class TestSlicedLSTMStack:
    def test_output_shapes_per_rate(self, rng):
        lstm = SlicedLSTM(8, 16, num_layers=2, rng=rng)
        x = tensor(rng, 5, 3, 8)
        for rate, width in ((1.0, 16), (0.5, 8)):
            with slice_rate(rate):
                out, states = lstm(x)
            assert out.shape == (5, 3, width)
            assert states[1][0].shape == (3, width)

    def test_layer0_accepts_unsliced_embedding(self, rng):
        lstm = SlicedLSTM(8, 16, num_layers=2, rng=rng)
        with slice_rate(0.25):
            out, _ = lstm(tensor(rng, 4, 2, 8))
        assert out.shape == (4, 2, 4)

    def test_step_hook_called(self, rng):
        lstm = SlicedLSTM(4, 8, num_layers=2, rng=rng)
        calls = []
        lstm(tensor(rng, 3, 2, 4),
             step_hook=lambda layer, t, h: calls.append((layer, t)))
        assert len(calls) == 2 * 3

    def test_gradients_flow(self, rng):
        lstm = SlicedLSTM(4, 8, num_layers=2, rng=rng)
        x = tensor(rng, 3, 2, 4)
        with slice_rate(0.5):
            out, _ = lstm(x)
            out.sum().backward()
        grads = [p.grad for p in lstm.parameters() if p.grad is not None]
        assert grads
        # Inactive suffix rows of the gate weights receive zero gradient.
        cell = lstm.cells[0]
        assert np.abs(cell.w_ih_i.grad[:4]).sum() > 0
        np.testing.assert_allclose(cell.w_ih_i.grad[4:], 0.0)
