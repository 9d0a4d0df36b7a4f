"""One declaration per planned model family.

A :class:`Family` names a model class and lists, in execution order, the
operations (:class:`Op`) its eval-mode forward pass runs, plus the
adapters around them:

* ``prepare`` turns the request into the first op's input (the
  encoder's ``patchify``);
* ``flat_tail`` runs the last ops on ``(T * B, D)`` rows and restores
  the ``(T, B)`` leading axes afterwards (the sequence decoders).

Ops form a tree: a ``residual`` op holds the ops of a pre-activation
residual block (its pre-activation, its body and an optional projection
shortcut), so a ResNet is declared like every other family.

Both executors read these declarations and share :meth:`Family.execute`:
:func:`~repro.slicing.plans.compile_plan` turns each op into a BLAS
``PlanStep``, and :class:`~repro.slicing.resume.ResumablePlan` runs the
same compiled steps through nodes that retain their intermediates for
Sec. 3.5 widening.  Every bundled model is declared, and so is a
``Sequential`` of sliced layers (an ``upgrade_model`` result); a model
without a declaration has no plan, count or deployment.  A
new family built from existing op kinds is one more entry in
:func:`families`.  A new op kind needs a step in ``plans.py``, and a
node class in ``resume.py`` only if it has a Sec. 3.5 reuse rule (every
other step runs through the generic node).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Callable

import numpy as np

from ..errors import PlanError
from ..nn import (AvgPool2d, BatchNorm2d, Dropout, GlobalAvgPool2d,
                  MaxPool2d, ReLU, Sequential)
from .layers import (MultiBatchNorm2d, SlicedConv2d, SlicedGroupNorm,
                     SlicedLinear)
from .recurrent import SlicedGRUCell, SlicedLSTMCell, SlicedRNNCell

__all__ = ["Op", "Family", "families", "family_of"]


@dataclass(frozen=True)
class Op:
    """One operation of a declared forward pass.

    ``kind`` selects the compiled step; ``layer`` is the module
    the weights come from (the whole transformer block for the
    ``attention`` and ``ffn`` halves); ``relu`` fuses a trailing ReLU.
    Norms run at the width that arrives, so no op names a rate.

    A ``residual`` op computes ``body(pre(x)) + shortcut``: ``pre`` is
    the pre-activation, ``body`` the residual branch, and ``shortcut``
    a projection op that reads the pre-activated input (None: the
    identity, which reads the raw block input ``x``).
    """

    kind: str
    layer: Any = None
    relu: bool = False
    pre: tuple["Op", ...] = ()
    body: tuple["Op", ...] = ()
    shortcut: "Op | None" = None


@dataclass(frozen=True)
class Family:
    """A model class, its op sequence and its input/output adapters.

    ``row_subset`` says whether retained state can be restricted to a
    subset of batch rows (:meth:`ResumablePlan.subset`); sequence and
    attention models mix positions, so they opt out.
    """

    name: str
    model_type: type
    ops: Callable[[Any], list[Op]]
    prepare: Callable[[Any, np.ndarray], np.ndarray] | None = None
    flat_tail: int = 0
    row_subset: bool = True

    def execute(self, model, units: list, x: np.ndarray,
                apply: Callable[[Any, np.ndarray], np.ndarray]
                ) -> np.ndarray:
        """Thread ``x`` through ``apply(unit, x)``, one unit per op."""
        if self.prepare is not None:
            x = self.prepare(model, x)
        split = len(units) - self.flat_tail
        for unit in units[:split]:
            x = apply(unit, x)
        if not self.flat_tail:
            return x
        lead = x.shape[:-1]
        x = x.reshape(-1, x.shape[-1])
        for unit in units[split:]:
            x = apply(unit, x)
        return x.reshape(lead + (-1,))


def _mlp_ops(model) -> list[Op]:
    return [Op("linear", layer, relu=True) for layer in model.layers] \
        + [Op("linear", model.head)]


def _vgg_ops(model) -> list[Op]:
    ops: list[Op] = []
    for kind, layer in model._ops:
        if kind == "conv":
            ops.append(Op("conv", layer))
        elif kind == "norm":
            ops.append(Op("norm", layer, relu=True))
        else:
            ops.append(Op("pool", layer))
    return ops + [Op("global_pool"), Op("linear", model.head)]


def _resnet_ops(model) -> list[Op]:
    ops = [Op("conv", model.stem)]
    for block in model.blocks:
        ops.append(Op(
            "residual", block,
            pre=(Op("norm", block.norm1, relu=True),),
            body=(Op("conv", block.conv1),
                  Op("norm", block.norm2, relu=True),
                  Op("conv", block.conv2),
                  Op("norm", block.norm3, relu=True),
                  Op("conv", block.conv3)),
            shortcut=None if block.shortcut is None
            else Op("conv", block.shortcut)))
    return ops + [Op("norm", model.final_norm, relu=True),
                  Op("global_pool"), Op("linear", model.head)]


def _nnlm_ops(model) -> list[Op]:
    return [Op("embedding", model.embedding), Op("lstm", model.lstm),
            Op("linear", model.decoder), Op("log_softmax")]


def _block_ops(model) -> list[Op]:
    return [Op(kind, block) for block in model.blocks
            for kind in ("attention", "ffn")]


def _encoder_ops(model) -> list[Op]:
    return [Op("dense", model.patch_embed), Op("positional", model.pos),
            *_block_ops(model), Op("layernorm", model.ln_f),
            Op("mean_pool"), Op("dense", model.head), Op("log_softmax")]


def _lm_ops(model) -> list[Op]:
    return [Op("embedding", model.embedding), Op("positional", model.pos),
            *_block_ops(model), Op("layernorm", model.ln_f),
            Op("dense", model.decoder), Op("log_softmax")]


#: The op kind of each layer a ``Sequential`` may hold.
_SEQUENTIAL_KINDS = (
    ("linear", SlicedLinear), ("conv", SlicedConv2d),
    ("norm", (SlicedGroupNorm, BatchNorm2d, MultiBatchNorm2d)),
    ("pool", (MaxPool2d, AvgPool2d, GlobalAvgPool2d)),
    ("dropout", Dropout),
    ("cell", (SlicedLSTMCell, SlicedGRUCell, SlicedRNNCell)),
)


def _sequential_ops(model) -> list[Op]:
    """A ``Sequential``'s children in order; a ``ReLU`` fuses into the
    linear or norm op before it, and any other child has no op."""
    ops: list[Op] = []
    for index, child in enumerate(model):
        if isinstance(child, ReLU) and ops and not ops[-1].relu \
                and ops[-1].kind in ("linear", "norm"):
            ops[-1] = replace(ops[-1], relu=True)
            continue
        kind = next((kind for kind, types in _SEQUENTIAL_KINDS
                     if isinstance(child, types)), None)
        if kind is None:
            raise PlanError(
                f"no plan op for Sequential child {index} "
                f"({type(child).__name__})")
        ops.append(Op(kind, child))
    return ops


@cache
def families() -> tuple[Family, ...]:
    """Every declared family, in lookup order."""
    # Imported lazily: repro.models imports repro.slicing at module load.
    from ..models.mlp import MLP
    from ..models.nnlm import NNLM
    from ..models.resnet import SlicedResNet
    from ..models.transformer import TransformerEncoder, TransformerLM
    from ..models.vgg import SlicedVGG

    return (
        Family("mlp", MLP, _mlp_ops),
        Family("cnn", SlicedVGG, _vgg_ops),
        Family("resnet", SlicedResNet, _resnet_ops),
        Family("nnlm", NNLM, _nnlm_ops, flat_tail=2, row_subset=False),
        Family("tenc", TransformerEncoder, _encoder_ops,
               prepare=lambda model, images: model.patchify(images),
               row_subset=False),
        Family("tlm", TransformerLM, _lm_ops, flat_tail=2,
               row_subset=False),
        # Last: a container of sliced layers, e.g. what upgrade_model
        # returns for a plain network.
        Family("sequential", Sequential, _sequential_ops),
    )


def family_of(model) -> Family | None:
    """The declaration covering ``model`` (None if it has none)."""
    for family in families():
        if isinstance(model, family.model_type):
            return family
    return None
