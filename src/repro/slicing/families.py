"""One declaration per planned model family.

A :class:`Family` names a model class and lists, in execution order, the
operations (:class:`Op`) its eval-mode forward pass runs, plus the
adapters around them:

* ``prepare`` turns the request into the first op's input (the
  encoder's ``patchify``);
* ``flat_tail`` runs the last ops on ``(T * B, D)`` rows and restores
  the ``(T, B)`` leading axes afterwards (the sequence decoders).

Both executors read these declarations and share :meth:`Family.execute`:
:func:`~repro.slicing.plans.compile_plan` turns each op into a BLAS
``PlanStep``, and :class:`~repro.slicing.resume.ResumablePlan` turns it
into a node that retains its intermediates for Sec. 3.5 widening.  A new
family built from existing op kinds is one more entry in
:func:`families`; a new op kind needs a step in ``plans.py`` and a node
in ``resume.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

import numpy as np

__all__ = ["Op", "Family", "families", "family_of"]


@dataclass(frozen=True)
class Op:
    """One operation of a declared forward pass.

    ``kind`` selects the step and node classes; ``layer`` is the module
    the weights come from (the whole transformer block for the
    ``attention`` and ``ffn`` halves); ``relu`` fuses a trailing ReLU;
    ``source`` is the module whose slice point sets the rate of a layer
    without one of its own (the conv feeding a norm).
    """

    kind: str
    layer: Any = None
    relu: bool = False
    source: Any = None


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
    conv = None
    for kind, layer in model._ops:
        if kind == "conv":
            conv = layer
            ops.append(Op("conv", layer))
        elif kind == "norm":
            # Norms normalize whatever width arrives, so they run at the
            # feeding conv's rate — naming them is unnecessary.
            ops.append(Op("norm", layer, relu=True, source=conv))
        else:
            ops.append(Op("pool", layer))
    return ops + [Op("global_pool"), Op("linear", model.head)]


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


@cache
def families() -> tuple[Family, ...]:
    """Every declared family, in lookup order."""
    # Imported lazily: repro.models imports repro.slicing at module load.
    from ..models.mlp import MLP
    from ..models.nnlm import NNLM
    from ..models.transformer import TransformerEncoder, TransformerLM
    from ..models.vgg import SlicedVGG

    return (
        Family("mlp", MLP, _mlp_ops),
        Family("cnn", SlicedVGG, _vgg_ops),
        Family("nnlm", NNLM, _nnlm_ops, flat_tail=2, row_subset=False),
        Family("tenc", TransformerEncoder, _encoder_ops,
               prepare=lambda model, images: model.patchify(images),
               row_subset=False),
        Family("tlm", TransformerLM, _lm_ops, flat_tail=2,
               row_subset=False),
    )


def family_of(model) -> Family | None:
    """The declaration covering ``model`` (None if it has none)."""
    for family in families():
        if isinstance(model, family.model_type):
            return family
    return None
