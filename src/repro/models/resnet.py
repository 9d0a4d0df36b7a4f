"""Sliceable pre-activation ResNet with bottleneck blocks.

Follows the paper's Table 3 configurations: ResNet-164 / ResNet-56-2 on
CIFAR and ResNet-50 on ImageNet, all built from the pre-activation
bottleneck ``conv1x1 - conv3x3 - conv1x1`` (He et al., identity mappings).
Slicing applies to every conv's channel groups; identity shortcuts stay
width-consistent under a uniform rate.  A per-layer profile must give a
block's last conv the width of its shortcut (or of the block input),
else the block raises :class:`~repro.errors.ShapeError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError, ShapeError
from ..nn.module import Module, ModuleList
from ..nn.pooling import GlobalAvgPool2d
from ..slicing.layers import (
    DEFAULT_GROUPS,
    MultiBatchNorm2d,
    SlicedBatchNorm2d,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
)
from ..slicing.profile import assign_slice_points
from ..tensor import Tensor


def _make_norm(channels: int, norm: str, num_groups: int,
               rates: Sequence[float] | None) -> Module:
    if norm == "group":
        return SlicedGroupNorm(channels, num_groups=num_groups)
    if norm == "batch":
        return SlicedBatchNorm2d(channels)
    return MultiBatchNorm2d(channels, list(rates), num_groups=num_groups)


class BottleneckBlock(Module):
    """Pre-activation bottleneck: GN-ReLU-1x1, GN-ReLU-3x3, GN-ReLU-1x1.

    ``expansion = 4``: the block maps ``in_channels`` to
    ``4 * bottleneck_channels``, downsampling in the 3x3 conv when
    ``stride > 1``.  A sliced 1x1 projection handles shape-changing
    shortcuts.
    """

    expansion = 4

    def __init__(self, in_channels: int, bottleneck_channels: int,
                 stride: int = 1, num_groups: int = DEFAULT_GROUPS,
                 norm: str = "group", rates: Sequence[float] | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        out_channels = bottleneck_channels * self.expansion
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.norm1 = _make_norm(in_channels, norm, num_groups, rates)
        self.conv1 = SlicedConv2d(in_channels, bottleneck_channels, 1,
                                  num_groups=num_groups, rng=rng)
        self.norm2 = _make_norm(bottleneck_channels, norm, num_groups, rates)
        self.conv2 = SlicedConv2d(bottleneck_channels, bottleneck_channels, 3,
                                  stride=stride, padding=1,
                                  num_groups=num_groups, rng=rng)
        self.norm3 = _make_norm(bottleneck_channels, norm, num_groups, rates)
        self.conv3 = SlicedConv2d(bottleneck_channels, out_channels, 1,
                                  num_groups=num_groups, rng=rng)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = SlicedConv2d(in_channels, out_channels, 1,
                                         stride=stride,
                                         num_groups=num_groups, rng=rng)
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        pre = self.norm1(x).relu()
        out = self.conv1(pre)
        out = self.conv2(self.norm2(out).relu())
        out = self.conv3(self.norm3(out).relu())
        identity = self.shortcut(pre) if self.shortcut is not None else x
        if out.shape[1] != identity.shape[1]:
            raise ShapeError(
                f"residual body emits {out.shape[1]} channels but the "
                f"shortcut {identity.shape[1]}; both branches must run "
                f"at one width")
        return out + identity


class SlicedResNet(Module):
    """Pre-activation bottleneck ResNet with model slicing.

    Parameters
    ----------
    blocks_per_stage:
        Number of bottleneck blocks in each of the (typically three)
        stages.  Stage ``i > 0`` starts with a stride-2 block.
    base_channels:
        Bottleneck width of the first stage; later stages double it.
    widen:
        Width multiplier ``k`` (ResNet-L-k of the paper, e.g. ResNet-56-2).
    """

    def __init__(self, blocks_per_stage: Sequence[int],
                 base_channels: int = 16, widen: int = 1,
                 in_channels: int = 3, num_classes: int = 10,
                 num_groups: int = DEFAULT_GROUPS, norm: str = "group",
                 rates: Sequence[float] | None = None, seed: int = 0):
        super().__init__()
        if not blocks_per_stage:
            raise ConfigError("blocks_per_stage must not be empty")
        if norm not in ("group", "batch", "multi_bn"):
            raise ConfigError(f"unknown norm {norm!r}")
        if norm == "multi_bn" and not rates:
            raise ConfigError("multi_bn requires candidate rates")
        rng = np.random.default_rng(seed)
        self.blocks_per_stage = list(blocks_per_stage)
        self.base_channels = base_channels
        self.widen = widen
        self.num_classes = num_classes

        width = base_channels * widen
        self.stem = SlicedConv2d(in_channels, width, 3, padding=1,
                                 slice_input=False, num_groups=num_groups,
                                 rng=rng)
        self.blocks = ModuleList()
        current = width
        for stage, count in enumerate(self.blocks_per_stage):
            channels = base_channels * widen * (2 ** stage)
            for block_idx in range(count):
                stride = 2 if stage > 0 and block_idx == 0 else 1
                block = BottleneckBlock(
                    current, channels, stride=stride, num_groups=num_groups,
                    norm=norm, rates=rates, rng=rng,
                )
                self.blocks.append(block)
                current = block.out_channels
        self.final_norm = _make_norm(current, norm, num_groups, rates)
        self.global_pool = GlobalAvgPool2d()
        self.head = SlicedLinear(current, num_classes, slice_input=True,
                                 slice_output=False, rescale=True,
                                 num_groups=num_groups, rng=rng)
        assign_slice_points(self)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        for block in self.blocks:
            x = block(x)
        x = self.final_norm(x).relu()
        x = self.global_pool(x)
        return self.head(x)

    def stage_outputs(self, x: Tensor) -> list[Tensor]:
        """Features at each stage boundary (used by early-exit baselines)."""
        outputs = []
        x = self.stem(x)
        boundaries = set(np.cumsum(self.blocks_per_stage) - 1)
        for i, block in enumerate(self.blocks):
            x = block(x)
            if i in boundaries:
                outputs.append(x)
        return outputs

    @property
    def depth(self) -> int:
        """Layer count in the paper's ``ResNet-L`` naming (3 convs per block)."""
        return 3 * sum(self.blocks_per_stage) + 2

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def resnet164(cls, num_classes: int = 10, **kwargs) -> "SlicedResNet":
        """Paper-size ResNet-164: 18 bottleneck blocks per stage."""
        return cls([18, 18, 18], base_channels=16, num_classes=num_classes,
                   **kwargs)

    @classmethod
    def resnet56_2(cls, num_classes: int = 10, **kwargs) -> "SlicedResNet":
        """Paper-size ResNet-56-2: 6 blocks per stage, doubled width."""
        return cls([6, 6, 6], base_channels=16, widen=2,
                   num_classes=num_classes, **kwargs)

    @classmethod
    def cifar_mini(cls, num_classes: int = 8, blocks: int = 2,
                   base_channels: int = 8, widen: int = 1,
                   **kwargs) -> "SlicedResNet":
        """CPU-scale ResNet: same block structure at training-in-seconds size."""
        return cls([blocks, blocks], base_channels=base_channels,
                   widen=widen, num_classes=num_classes, **kwargs)
