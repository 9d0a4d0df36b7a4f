"""Cascade ranking (Sec. 4.2 / Table 5 of the paper).

A cascade of increasingly expensive classifiers filters a large item set:
an item survives stage ``k`` only if stage ``k``'s prediction agrees with
what earlier stages established (here, as in the paper's simulation, the
item's type: a correct, consistent prediction chain).  The paper's
metrics:

* **precision** of stage ``k`` — its standalone accuracy on the full set;
* **aggregate recall** after stage ``k`` — the fraction of items
  correctly classified by *every* stage up to ``k`` (accumulated false
  negatives are the complement).

The comparison: a cascade of independently trained models of growing
width versus the subnets of one slicing-trained model.  Because a sliced
model's larger subnets *contain* the smaller ones, their predictions are
far more consistent, so fewer positives are lost along the cascade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError


@dataclass
class RankingStage:
    """One ranking stage: a named predictor with its deployment cost."""

    name: str
    predict: Callable[[np.ndarray], np.ndarray]
    params: int
    flops: int


@dataclass
class StageResult:
    """Per-stage outcome of a cascade run."""

    name: str
    precision: float
    aggregate_recall: float
    params: int
    flops: int


class CascadeSimulation:
    """Run a classifier cascade over a labelled item set."""

    def __init__(self, stages: Sequence[RankingStage]):
        if not stages:
            raise ConfigError("cascade needs at least one stage")
        self.stages = list(stages)

    def run(self, inputs: np.ndarray, labels: np.ndarray
            ) -> list[StageResult]:
        """Evaluate the cascade; returns per-stage precision and recall."""
        labels = np.asarray(labels)
        correct_so_far = np.ones(len(labels), dtype=bool)
        results = []
        for stage in self.stages:
            predictions = np.asarray(stage.predict(inputs))
            if predictions.shape != labels.shape:
                raise ConfigError(
                    f"stage {stage.name} returned predictions of shape "
                    f"{predictions.shape}, expected {labels.shape}"
                )
            correct = predictions == labels
            correct_so_far &= correct
            results.append(StageResult(
                name=stage.name,
                precision=float(correct.mean()),
                aggregate_recall=float(correct_so_far.mean()),
                params=stage.params,
                flops=stage.flops,
            ))
        return results

    def total_params(self) -> int:
        """Parameters deployed across the whole cascade."""
        return sum(stage.params for stage in self.stages)

    def total_flops(self) -> int:
        """Per-item FLOPs if every stage evaluates every item."""
        return sum(stage.flops for stage in self.stages)


def sliced_model_stages(model, rates: Sequence[float],
                        flops_of_rate: dict[float, int],
                        params_of_rate: dict[float, int]) -> list[RankingStage]:
    """Build cascade stages from the subnets of one sliced model."""
    from ..slicing.context import slice_rate
    from ..tensor import Tensor, no_grad

    stages = []
    for rate in sorted(rates):
        def predict(inputs, rate=rate):
            model.eval()
            with no_grad():
                with slice_rate(rate):
                    return model(Tensor(inputs)).data.argmax(axis=1)

        stages.append(RankingStage(
            name=f"Subnet-{rate}",
            predict=predict,
            params=params_of_rate[rate],
            flops=flops_of_rate[rate],
        ))
    return stages


def fixed_model_stages(members: dict[float, object],
                       flops_of_rate: dict[float, int],
                       params_of_rate: dict[float, int]) -> list[RankingStage]:
    """Build cascade stages from independently trained fixed models."""
    from ..slicing.context import slice_rate
    from ..tensor import Tensor, no_grad

    stages = []
    for rate in sorted(members):
        model = members[rate]

        def predict(inputs, model=model, rate=rate):
            model.eval()
            with no_grad():
                with slice_rate(rate):
                    return model(Tensor(inputs)).data.argmax(axis=1)

        stages.append(RankingStage(
            name=f"Fixed-{rate}",
            predict=predict,
            params=params_of_rate[rate],
            flops=flops_of_rate[rate],
        ))
    return stages
