"""Anytime prediction via progressive widening (paper Sec. 1 & 3.5).

A model trained with slicing supports *anytime prediction*: produce a
fast base-rate answer immediately, then — if the deadline allows — widen
the computation rate by rate, improving the answer.  Because of the
group-residual structure (Sec. 3.5), widening from ``r_a`` to ``r_b``
can *reuse* the narrow pass: each dense layer only computes the three
cross-term blocks, never re-multiplying the base block.

The engine is a loop over one approximate-mode
:class:`~repro.slicing.resume.ResumablePlan`: ``run`` at the base rate,
then ``widen`` per refinement.  Each step's cost is the plan's measured
``spent_madds``, so the anytime cost curve it reports is real, not
estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..models.mlp import MLP
from ..slicing.resume import ResumablePlan, scratch_madds


@dataclass
class AnytimeStep:
    """One refinement step of an anytime inference run."""

    rate: float
    logits: np.ndarray
    step_madds: int
    cumulative_madds: int


class AnytimeMLP:
    """Progressive-widening inference engine for a sliced MLP.

    Parameters
    ----------
    model:
        A :class:`~repro.models.MLP` (hidden layers + head built from
        ``SlicedLinear``).
    rates:
        Ascending refinement schedule; the first entry is the immediate
        answer's rate.
    """

    def __init__(self, model: MLP, rates: list[float]):
        if not isinstance(model, MLP):
            raise ConfigError("AnytimeMLP currently supports the MLP model")
        rates = sorted(float(r) for r in rates)
        if not rates:
            raise ConfigError("need at least one refinement rate")
        self.model = model
        self.rates = rates

    def run(self, inputs: np.ndarray,
            budget_madds: int | None = None) -> list[AnytimeStep]:
        """Refine predictions through the schedule, reusing computation.

        Parameters
        ----------
        inputs:
            ``(batch, in_features)`` float array.
        budget_madds:
            Optional hard compute budget; refinement stops before the
            step that would exceed it (the base step always runs).

        Returns
        -------
        One :class:`AnytimeStep` per executed rate; the last step's
        ``logits`` is the best available answer.
        """
        plan = ResumablePlan(self.model, self.rates[0], exact=False)
        logits = plan.run(inputs)
        steps = [AnytimeStep(self.rates[0], logits, plan.spent_madds,
                             plan.spent_madds)]
        for rate in self.rates[1:]:
            before = plan.spent_madds
            logits = plan.widen(rate)
            if budget_madds is not None and plan.spent_madds > budget_madds:
                break
            steps.append(AnytimeStep(rate, logits, plan.spent_madds - before,
                                     plan.spent_madds))
        return steps

    def from_scratch_cost(self, batch: int, rate: float) -> int:
        """Multiply-adds of a non-incremental pass at ``rate``."""
        return scratch_madds(self.model, rate, batch)


def anytime_accuracy_curve(engine: AnytimeMLP, inputs: np.ndarray,
                           labels: np.ndarray) -> list[dict]:
    """Accuracy and measured cost at each anytime refinement step."""
    steps = engine.run(inputs)
    curve = []
    for step in steps:
        accuracy = float((step.logits.argmax(axis=1) == labels).mean())
        curve.append({
            "rate": step.rate,
            "accuracy": accuracy,
            "step_madds": step.step_madds,
            "cumulative_madds": step.cumulative_madds,
            "from_scratch_madds": engine.from_scratch_cost(
                len(labels), step.rate),
        })
    return curve
