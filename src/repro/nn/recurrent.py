"""Recurrent cells and sequence wrappers: vanilla RNN, LSTM, GRU."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..tensor import Tensor, stack
from .init import xavier_uniform, zeros
from .module import Module, Parameter


def _zero_state(batch: int, hidden: int) -> Tensor:
    return Tensor(np.zeros((batch, hidden), dtype=np.float32))


class RNNCell(Module):
    """Vanilla recurrent cell: ``h' = tanh(x W_ih^T + h W_hh^T + b)``."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            xavier_uniform(rng, (hidden_size, input_size))
        )
        self.weight_hh = Parameter(
            xavier_uniform(rng, (hidden_size, hidden_size))
        )
        self.bias = Parameter(zeros((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        if h is None:
            h = _zero_state(x.shape[0], self.hidden_size)
        pre = x @ self.weight_ih.transpose() + h @ self.weight_hh.transpose()
        return (pre + self.bias).tanh()


class LSTMCell(Module):
    """LSTM cell with the standard i/f/g/o gate layout."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None,
                 forget_bias: float = 1.0):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            xavier_uniform(rng, (4 * hidden_size, input_size), fan_in=input_size,
                           fan_out=hidden_size)
        )
        self.weight_hh = Parameter(
            xavier_uniform(rng, (4 * hidden_size, hidden_size), fan_in=hidden_size,
                           fan_out=hidden_size)
        )
        bias = zeros((4 * hidden_size,))
        bias[hidden_size: 2 * hidden_size] = forget_bias
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
                ) -> tuple[Tensor, Tensor]:
        """One step; returns ``(h, c)``."""
        if state is None:
            h = _zero_state(x.shape[0], self.hidden_size)
            c = _zero_state(x.shape[0], self.hidden_size)
        else:
            h, c = state
        n = self.hidden_size
        gates = (x @ self.weight_ih.transpose()
                 + h @ self.weight_hh.transpose() + self.bias)
        i = gates[:, 0 * n:1 * n].sigmoid()
        f = gates[:, 1 * n:2 * n].sigmoid()
        g = gates[:, 2 * n:3 * n].tanh()
        o = gates[:, 3 * n:4 * n].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class GRUCell(Module):
    """GRU cell with the r/z/n gate layout, resetting ``h`` before ``U_n``.

    ``r = sigmoid(x W_r + h U_r + b_r)``, ``z`` likewise, and the candidate
    ``n = tanh(x W_n + (r * h) U_n + b_n)``: the reset gate scales the
    hidden state ahead of its matmul, with one bias per gate.  This is
    the formulation :class:`~repro.slicing.recurrent.SlicedGRUCell` uses,
    so a materialized sliced cell computes the same function.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            xavier_uniform(rng, (3 * hidden_size, input_size), fan_in=input_size,
                           fan_out=hidden_size)
        )
        self.weight_hh = Parameter(
            xavier_uniform(rng, (3 * hidden_size, hidden_size), fan_in=hidden_size,
                           fan_out=hidden_size)
        )
        self.bias = Parameter(zeros((3 * hidden_size,)))

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        if h is None:
            h = _zero_state(x.shape[0], self.hidden_size)
        n = self.hidden_size
        gi = x @ self.weight_ih.transpose() + self.bias
        gh = h @ self.weight_hh[:2 * n].transpose()
        r = (gi[:, 0 * n:1 * n] + gh[:, 0 * n:1 * n]).sigmoid()
        z = (gi[:, 1 * n:2 * n] + gh[:, 1 * n:2 * n]).sigmoid()
        cand = (gi[:, 2 * n:3 * n]
                + (r * h) @ self.weight_hh[2 * n:].transpose()).tanh()
        return (1.0 - z) * cand + z * h


class LSTM(Module):
    """Multi-layer LSTM over a ``(T, B, I)`` sequence.

    Returns the stacked top-layer outputs ``(T, B, H)`` and the final
    ``(h, c)`` state per layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers <= 0:
            raise ConfigError("LSTM num_layers must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self.cells: list[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size,
                            hidden_size, rng=rng)
            self.register_module(f"cell{layer}", cell)
            self.cells.append(cell)

    def forward(self, inputs: Tensor,
                states: list[tuple[Tensor, Tensor]] | None = None
                ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        if states is None:
            states = [None] * self.num_layers
        steps = inputs.shape[0]
        layer_input = [inputs[t] for t in range(steps)]
        final_states: list[tuple[Tensor, Tensor]] = []
        for layer, cell in enumerate(self.cells):
            state = states[layer]
            outputs = []
            for x_t in layer_input:
                state = cell(x_t, state)
                outputs.append(state[0])
            final_states.append(state)
            layer_input = outputs
        return stack(layer_input, axis=0), final_states
