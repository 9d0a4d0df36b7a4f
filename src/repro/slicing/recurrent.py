"""Sliceable recurrent cells (Sec. 3.3 of the paper).

The hidden/memory states and every gate are sliced by the same rate.  Gate
weights are stored per gate as ``(hidden, input)`` matrices so that slicing
is a plain prefix selection on both axes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..nn.init import xavier_uniform, zeros
from ..nn.module import Module, Parameter
from ..tensor import Tensor, stack
from .context import resolve_rate
from .partition import GroupPartition
from .layers import DEFAULT_GROUPS
from .profile import auto_slice_point


def _zero_state(batch: int, width: int) -> Tensor:
    return Tensor(np.zeros((batch, width), dtype=np.float32))


class _SlicedRecurrentBase(Module):
    """Shared plumbing for sliced recurrent cells."""

    def __init__(self, input_size: int, hidden_size: int,
                 slice_input: bool, rescale: bool, num_groups: int):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.slice_input = slice_input
        self.rescale = rescale
        self.partition = GroupPartition(
            hidden_size, min(num_groups, hidden_size)
        )
        self.in_partition = GroupPartition(
            input_size, min(num_groups, input_size)
        ) if slice_input else None
        self.slice_point = auto_slice_point(self)

    def active_hidden(self, rate: float | None = None) -> int:
        """Hidden width active at ``rate`` (current rate if omitted)."""
        rate = resolve_rate(self) if rate is None else rate
        return self.partition.width_for(rate)

    def _check_input(self, x: Tensor) -> int:
        in_width = x.shape[-1]
        if not self.slice_input and in_width != self.input_size:
            raise ShapeError(
                f"unsliced input expected {self.input_size} features, "
                f"got {in_width}"
            )
        return in_width

    def _gate_pre(self, x: Tensor, h: Tensor, w_ih: Parameter,
                  w_hh: Parameter, bias: Parameter, in_width: int,
                  hidden: int) -> Tensor:
        pre = (x @ w_ih[:hidden, :in_width].transpose()
               + h @ w_hh[:hidden, :hidden].transpose()
               + bias[:hidden])
        if self.rescale:
            scale = 0.0
            scale += self.input_size / in_width
            scale += self.hidden_size / hidden
            pre = pre * (scale / 2.0)
        return pre


class SlicedRNNCell(_SlicedRecurrentBase):
    """Vanilla recurrent cell with sliced input/hidden widths."""

    def __init__(self, input_size: int, hidden_size: int,
                 slice_input: bool = True, rescale: bool = False,
                 num_groups: int = DEFAULT_GROUPS,
                 rng: np.random.Generator | None = None):
        super().__init__(input_size, hidden_size, slice_input, rescale,
                         num_groups)
        rng = rng if rng is not None else np.random.default_rng()
        self.weight_ih = Parameter(xavier_uniform(rng, (hidden_size, input_size)))
        self.weight_hh = Parameter(xavier_uniform(rng, (hidden_size, hidden_size)))
        self.bias = Parameter(zeros((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        in_width = self._check_input(x)
        hidden = self.active_hidden()
        if h is None:
            h = _zero_state(x.shape[0], hidden)
        pre = self._gate_pre(x, h, self.weight_ih, self.weight_hh,
                             self.bias, in_width, hidden)
        return pre.tanh()


class SlicedLSTMCell(_SlicedRecurrentBase):
    """LSTM cell whose gates, hidden and memory states are all sliced."""

    def __init__(self, input_size: int, hidden_size: int,
                 slice_input: bool = True, rescale: bool = False,
                 num_groups: int = DEFAULT_GROUPS,
                 rng: np.random.Generator | None = None,
                 forget_bias: float = 1.0):
        super().__init__(input_size, hidden_size, slice_input, rescale,
                         num_groups)
        rng = rng if rng is not None else np.random.default_rng()
        for gate in ("i", "f", "g", "o"):
            w_ih = xavier_uniform(rng, (hidden_size, input_size),
                                  fan_in=input_size, fan_out=hidden_size)
            w_hh = xavier_uniform(rng, (hidden_size, hidden_size),
                                  fan_in=hidden_size, fan_out=hidden_size)
            bias = zeros((hidden_size,))
            if gate == "f":
                bias[:] = forget_bias
            setattr(self, f"w_ih_{gate}", Parameter(w_ih))
            setattr(self, f"w_hh_{gate}", Parameter(w_hh))
            setattr(self, f"bias_{gate}", Parameter(bias))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
                ) -> tuple[Tensor, Tensor]:
        in_width = self._check_input(x)
        hidden = self.active_hidden()
        if state is None:
            h = _zero_state(x.shape[0], hidden)
            c = _zero_state(x.shape[0], hidden)
        else:
            h, c = state
            if h.shape[-1] != hidden:
                raise ShapeError(
                    f"carried hidden state has width {h.shape[-1]} but the "
                    f"current rate needs {hidden}"
                )
        gates = {}
        for gate in ("i", "f", "g", "o"):
            gates[gate] = self._gate_pre(
                x, h,
                getattr(self, f"w_ih_{gate}"),
                getattr(self, f"w_hh_{gate}"),
                getattr(self, f"bias_{gate}"),
                in_width, hidden,
            )
        i = gates["i"].sigmoid()
        f = gates["f"].sigmoid()
        g = gates["g"].tanh()
        o = gates["o"].sigmoid()
        c_next = f * c + i * g
        h_next = o * c_next.tanh()
        return h_next, c_next


class SlicedGRUCell(_SlicedRecurrentBase):
    """GRU cell with sliced gates and hidden state."""

    def __init__(self, input_size: int, hidden_size: int,
                 slice_input: bool = True, rescale: bool = False,
                 num_groups: int = DEFAULT_GROUPS,
                 rng: np.random.Generator | None = None):
        super().__init__(input_size, hidden_size, slice_input, rescale,
                         num_groups)
        rng = rng if rng is not None else np.random.default_rng()
        for gate in ("r", "z", "n"):
            w_ih = xavier_uniform(rng, (hidden_size, input_size),
                                  fan_in=input_size, fan_out=hidden_size)
            w_hh = xavier_uniform(rng, (hidden_size, hidden_size),
                                  fan_in=hidden_size, fan_out=hidden_size)
            setattr(self, f"w_ih_{gate}", Parameter(w_ih))
            setattr(self, f"w_hh_{gate}", Parameter(w_hh))
            setattr(self, f"bias_{gate}", Parameter(zeros((hidden_size,))))

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        in_width = self._check_input(x)
        hidden = self.active_hidden()
        if h is None:
            h = _zero_state(x.shape[0], hidden)
        pre = {
            gate: self._gate_pre(
                x, h,
                getattr(self, f"w_ih_{gate}"),
                getattr(self, f"w_hh_{gate}"),
                getattr(self, f"bias_{gate}"),
                in_width, hidden,
            )
            for gate in ("r", "z", "n")
        }
        r = pre["r"].sigmoid()
        z = pre["z"].sigmoid()
        # The candidate re-computes its hidden contribution gated by r.
        w_hh_n = self.w_hh_n[:hidden, :hidden]
        gated = (r * h) @ w_hh_n.transpose()
        cand_in = x @ self.w_ih_n[:hidden, :in_width].transpose()
        cand = (cand_in + gated + self.bias_n[:hidden]).tanh()
        return (1.0 - z) * cand + z * h


class SlicedLSTM(Module):
    """Multi-layer sliced LSTM over a ``(T, B, I)`` sequence.

    Layer 0 consumes the (unsliced) embedding; deeper layers consume the
    sliced hidden state of the previous layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 2,
                 rescale: bool = True, num_groups: int = DEFAULT_GROUPS,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self.cells: list[SlicedLSTMCell] = []
        for layer in range(num_layers):
            cell = SlicedLSTMCell(
                input_size if layer == 0 else hidden_size,
                hidden_size,
                slice_input=layer > 0,
                rescale=rescale,
                num_groups=num_groups,
                rng=rng,
            )
            self.register_module(f"cell{layer}", cell)
            self.cells.append(cell)

    def forward(self, inputs: Tensor,
                states: list[tuple[Tensor, Tensor] | None] | None = None,
                step_hook=None):
        """Run the stack over ``inputs``; returns ``(outputs, final_states)``.

        ``step_hook(layer, t, h)`` is an optional callback used by tests.
        """
        if states is None:
            states = [None] * self.num_layers
        steps = inputs.shape[0]
        layer_input = [inputs[t] for t in range(steps)]
        final_states = []
        for layer, cell in enumerate(self.cells):
            state = states[layer]
            outputs = []
            for t, x_t in enumerate(layer_input):
                state = cell(x_t, state)
                outputs.append(state[0])
                if step_hook is not None:
                    step_hook(layer, t, state[0])
            final_states.append(state)
            layer_input = outputs
        return stack(layer_input, axis=0), final_states
