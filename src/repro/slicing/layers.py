"""Sliceable layers: dense, convolutional and normalization variants.

Each sliced layer holds the *full* parameter tensors and, on every forward
pass, uses only the prefix selected by the ambient slice rate (see
:mod:`repro.slicing.context`).  Because subnet parameters are literally
prefixes of the full tensors, ``Subnet-r_a`` is contained in ``Subnet-r_b``
whenever ``r_a < r_b`` — the structural constraint of Eq. 2.

Input widths are taken from the incoming activation itself rather than
recomputed from the rate: the previous sliced layer already produced the
correctly sliced activation, and using its width makes layer composition
robust to rounding.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ShapeError
from ..nn.init import kaiming_normal, ones, zeros
from ..nn.module import Module, Parameter
from ..nn.norm import BatchNorm2d
from ..tensor import Tensor, conv2d, group_norm
from .context import resolve_rate
from .partition import GroupPartition
from .profile import auto_slice_point

DEFAULT_GROUPS = 8


class SlicedLinear(Module):
    """Dense layer whose input/output neuron groups follow the slice rate.

    Parameters
    ----------
    in_features, out_features:
        Full widths.
    slice_input, slice_output:
        Whether each side participates in slicing.  Input layers keep
        ``slice_input=False``; classifier heads keep ``slice_output=False``
        (the paper leaves input and output layers unsliced).
    rescale:
        If True, multiply the output by ``full_in / active_in`` so the
        pre-activation scale is independent of the rate (the "output
        rescaling" used for the NNLM's dense layers).
    num_groups:
        Group count ``G`` for each sliced side.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 slice_input: bool = True, slice_output: bool = True,
                 rescale: bool = False, num_groups: int = DEFAULT_GROUPS,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.slice_input = slice_input
        self.slice_output = slice_output
        self.rescale = rescale
        self.out_partition = GroupPartition(
            out_features, min(num_groups, out_features)
        ) if slice_output else None
        self.in_partition = GroupPartition(
            in_features, min(num_groups, in_features)
        ) if slice_input else None
        self.weight = Parameter(kaiming_normal(rng, (out_features, in_features)))
        self.bias = Parameter(zeros((out_features,))) if bias else None
        self.slice_point = auto_slice_point(self)
        # Components per indivisible slice unit along the output axis.
        # Plain width slicing can cut at any group boundary, so the unit
        # is a single neuron; attention overrides this with head_dim.
        self.slice_group_size = 1

    def forward(self, x: Tensor) -> Tensor:
        in_width = x.shape[-1]
        if not self.slice_input and in_width != self.in_features:
            raise ShapeError(
                f"unsliced input expected {self.in_features} features, "
                f"got {in_width}"
            )
        out_width = (
            self.out_partition.width_for(resolve_rate(self))
            if self.slice_output else self.out_features
        )
        weight = self.weight[:out_width, :in_width]
        out = x @ weight.transpose()
        if self.bias is not None:
            out = out + self.bias[:out_width]
        if self.rescale and self.slice_input and in_width != self.in_features:
            out = out * (self.in_features / in_width)
        return out

    def __repr__(self) -> str:
        return (
            f"SlicedLinear({self.in_features}->{self.out_features}, "
            f"in={self.slice_input}, out={self.slice_output})"
        )


class SlicedConv2d(Module):
    """Convolution whose channel groups follow the slice rate (Eq. 4).

    ``slice_input=False`` marks the stem conv (raw-image input);
    ``slice_output=False`` would mark a conv feeding an unsliced consumer.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = False,
                 slice_input: bool = True, slice_output: bool = True,
                 num_groups: int = DEFAULT_GROUPS,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) \
            else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.slice_input = slice_input
        self.slice_output = slice_output
        self.out_partition = GroupPartition(
            out_channels, min(num_groups, out_channels)
        ) if slice_output else None
        self.in_partition = GroupPartition(
            in_channels, min(num_groups, in_channels)
        ) if slice_input else None
        self.weight = Parameter(
            kaiming_normal(rng, (out_channels, in_channels, kh, kw))
        )
        self.bias = Parameter(zeros((out_channels,))) if bias else None
        self.slice_point = auto_slice_point(self)
        self.slice_group_size = 1

    def active_out_channels(self, rate: float | None = None) -> int:
        """Output channels active at ``rate`` (current rate if omitted)."""
        if not self.slice_output:
            return self.out_channels
        rate = resolve_rate(self) if rate is None else rate
        return self.out_partition.width_for(rate)

    def forward(self, x: Tensor) -> Tensor:
        in_width = x.shape[1]
        if not self.slice_input and in_width != self.in_channels:
            raise ShapeError(
                f"unsliced input expected {self.in_channels} channels, "
                f"got {in_width}"
            )
        out_width = self.active_out_channels()
        weight = self.weight[:out_width, :in_width]
        bias = self.bias[:out_width] if self.bias is not None else None
        return conv2d(x, weight, bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"SlicedConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride})"
        )


class SlicedGroupNorm(Module):
    """Group normalization aligned with the slice groups (Sec. 3.2).

    The normalization groups coincide with the slice groups, so every
    surviving group under any slice rate normalizes over exactly the
    channels it was trained with — no running statistics are needed, which
    is what makes GN the natural normalization for model slicing.
    """

    def __init__(self, num_channels: int, num_groups: int = DEFAULT_GROUPS,
                 eps: float = 1e-5):
        super().__init__()
        num_groups = min(num_groups, num_channels)
        if num_channels % num_groups != 0:
            raise ConfigError(
                f"SlicedGroupNorm needs num_channels ({num_channels}) "
                f"divisible by num_groups ({num_groups})"
            )
        self.num_channels = num_channels
        self.num_groups = num_groups
        self.group_size = num_channels // num_groups
        self.eps = eps
        self.weight = Parameter(ones((num_channels,)))
        self.bias = Parameter(zeros((num_channels,)))
        # The forward is input-width-driven, but deploy / param
        # accounting resolve this norm's own rate by name.
        self.slice_point = auto_slice_point(self)
        # A norm group only survives whole, so it is the slice unit here.
        self.slice_group_size = self.group_size

    def forward(self, x: Tensor) -> Tensor:
        channels = x.shape[1]
        if channels % self.group_size != 0:
            raise ShapeError(
                f"active width {channels} is not a multiple of the "
                f"group size {self.group_size}"
            )
        # The prefix views route the gradient into the full parameters
        # through their __getitem__ backward.
        return group_norm(x, self.weight[:channels], self.bias[:channels],
                          channels // self.group_size, self.eps)

    def group_scale_means(self) -> np.ndarray:
        """Mean |gamma| per slice group — the telemetry behind Figure 6."""
        gamma = np.abs(self.weight.data)
        return gamma.reshape(self.num_groups, self.group_size).mean(axis=1)


class SlicedBatchNorm2d(BatchNorm2d):
    """Batch norm with a *single* set of running statistics under slicing.

    This is the naive approach the paper argues breaks (Sec. 3.2): the
    running estimates are shared across rates, so the eval-time statistics
    are wrong for every subnet trained at a different width mix.  Kept as
    the ablation baseline.  It is :class:`~repro.nn.BatchNorm2d` with
    prefixes accepted: the forward normalizes the arriving channels and
    updates that prefix of the shared statistics.
    """

    accepts_prefix = True


class MultiBatchNorm2d(Module):
    """One batch-norm layer per candidate slice rate (SlimmableNet [52]).

    Like every other norm it runs at the width that arrives: the forward
    pass dispatches to the BN instance of that width, each of which keeps
    its own running statistics.  Memory grows linearly with the number of
    candidate rates, which is the cost the paper's GN-based solution
    avoids.
    """

    def __init__(self, num_features: int, rates: list[float],
                 num_groups: int = DEFAULT_GROUPS,
                 eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if not rates:
            raise ConfigError("MultiBatchNorm2d needs at least one rate")
        self.num_features = num_features
        self.partition = GroupPartition(
            num_features, min(num_groups, num_features)
        )
        self._rate_keys: list[float] = []
        widths: dict[int, float] = {}
        for rate in sorted(set(float(r) for r in rates)):
            width = self.partition.width_for(rate)
            if width in widths:
                raise ConfigError(
                    f"rates {widths[width]} and {rate} both give width "
                    f"{width}; each BN must have a width of its own")
            widths[width] = rate
            self.register_module(f"bn_{self._key(rate)}", BatchNorm2d(
                width, eps=eps, momentum=momentum,
            ))
            self._rate_keys.append(rate)
        self.slice_point = auto_slice_point(self)

    @staticmethod
    def _key(rate: float) -> str:
        return format(rate, ".4f").replace(".", "_")

    def branch(self, width: int) -> BatchNorm2d | None:
        """The BN instance normalizing ``width`` channels (None: none)."""
        for rate in self._rate_keys:
            bn = getattr(self, f"bn_{self._key(rate)}")
            if bn.num_features == width:
                return bn
        return None

    def forward(self, x: Tensor) -> Tensor:
        bn = self.branch(x.shape[1])
        if bn is None:
            raise ShapeError(
                f"MultiBatchNorm2d has no BN for {x.shape[1]} channels; "
                f"configured rates: {self._rate_keys}"
            )
        return bn(x)
