"""Confidence cascades: run cheap, escalate the unsure.

Every batch first executes at the cascade's cheapest slice profile.
Rows whose prediction *margin* (top-1 minus top-2 logit) clears the
stage's confidence threshold are answered immediately; the rest
escalate to the next wider stage.  Two escalation modes share one loop:

* **recompute** (the default): each stage runs the rows that reached it
  through that stage's compiled :class:`~repro.slicing.plans.InferencePlan`
  (BLAS), held in the executor's own
  :class:`~repro.slicing.plans.PlanCache` across batches.  No bits are
  claimed against the exact path; this is the fast one in seconds.
* **incremental** (``incremental=True``, the Sec. 3.5 oracle): the
  narrow pass runs through a
  :class:`~repro.slicing.resume.ResumablePlan`, so the escalated rows
  :meth:`~repro.slicing.resume.ResumablePlan.subset` out their retained
  intermediates and :meth:`~repro.slicing.resume.ResumablePlan.widen`
  to the next profile, paying only the widening cross-terms.  Widening
  runs in exact mode, so the widened logits are bitwise what a
  from-scratch resumable pass at the wider profile would produce.

:class:`CascadeExecutor` is the deterministic, clock-free core the
runtime engine calls at dispatch time; :class:`CascadeResult` carries
per-row final stages, escalation counts and the multiply-add accounting
the engine turns into service time and the
``cascade_escalations_total`` / ``cascade_flops_saved_total`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ServingError
from ..slicing.plans import PlanCache
from ..slicing.profile import as_profile
from ..slicing.resume import ResumablePlan, pointwise_nested, scratch_madds

__all__ = ["CascadeStage", "CascadeResult", "CascadeExecutor",
           "margins_of"]


def margins_of(logits: np.ndarray) -> np.ndarray:
    """Per-row confidence margin: top-1 minus top-2 logit.

    The standard cascade confidence signal — cheap, monotone in the
    softmax margin, and deterministic (no sampling).
    """
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ServingError(
            f"margins need (batch, classes>=2) logits, got {logits.shape}")
    top2 = np.partition(logits, -2, axis=-1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


@dataclass(frozen=True)
class CascadeStage:
    """One rung of the cascade: a slice profile and an exit threshold.

    Rows whose margin is **at least** ``threshold`` exit at this stage;
    the rest escalate.  The terminal stage has ``threshold=None`` —
    everything that reaches it exits there.
    """

    rate: object               # uniform rate or SliceProfile
    threshold: float | None = None

    def label(self) -> str:
        profile = as_profile(self.rate)
        return f"{float(profile):g}" if profile.uniform \
            else profile.fingerprint()


@dataclass
class CascadeResult:
    """What one cascaded batch produced, and what it cost."""

    predictions: np.ndarray          # (n,) final class per row
    stages: np.ndarray               # (n,) final stage index per row
    stage_rows: list[int]            # rows processed at each stage
    stage_spent: list[int]           # multiply-adds actually executed
    stage_full: list[int]            # from-scratch multiply-adds
    escalations: list[tuple[int, int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.predictions)

    @property
    def spent_madds(self) -> int:
        return sum(self.stage_spent)

    @property
    def recompute_madds(self) -> int:
        """What the same escalations would cost recomputed from scratch."""
        return sum(self.stage_full)

    @property
    def flops_saved(self) -> int:
        return self.recompute_madds - self.spent_madds

    @property
    def escalated_rows(self) -> int:
        return int(np.count_nonzero(self.stages > 0))

    def stage_counts(self) -> list[int]:
        """Rows that *exited* at each stage."""
        return [int(np.count_nonzero(self.stages == k))
                for k in range(len(self.stage_rows))]

    def to_dict(self) -> dict:
        return {
            "rows": len(self),
            "exits_per_stage": self.stage_counts(),
            "rows_per_stage": list(self.stage_rows),
            "spent_madds": self.spent_madds,
            "recompute_madds": self.recompute_madds,
            "flops_saved": self.flops_saved,
            "escalations": [
                {"from": frm, "to": to, "rows": count}
                for frm, to, count in self.escalations],
        }


class CascadeExecutor:
    """Runs batches through a confidence cascade over one model.

    Parameters
    ----------
    model:
        A model :func:`~repro.slicing.plans.compile_plan` and
        :class:`~repro.slicing.resume.ResumablePlan` support, with
        float ``(batch, ...)`` inputs.
    stages:
        Cheapest-first :class:`CascadeStage` rungs; each stage's profile
        must be pointwise-nested inside the next (Eq. 2), and only the
        terminal stage may omit its threshold.
    incremental:
        ``True`` escalates by resuming the narrow pass (``subset`` then
        ``widen``, Sec. 3.5) on the canonical GEMM in exact mode: the
        multiply-add-saving oracle, bitwise equal to a from-scratch
        resumable pass at the reached profile (row subsetting rules out
        sequence and transformer models).  ``False`` (default) recomputes the
        escalated rows on cached compiled plans: the same thresholds,
        more multiply-adds, far fewer seconds.
    """

    def __init__(self, model, stages: Sequence[CascadeStage],
                 incremental: bool = False):
        stages = [s if isinstance(s, CascadeStage) else CascadeStage(*s)
                  for s in stages]
        if len(stages) < 2:
            raise ServingError("a cascade needs at least two stages")
        for k, stage in enumerate(stages[:-1]):
            if stage.threshold is None:
                raise ServingError(
                    f"stage {k} ({stage.label()}) needs a threshold; only "
                    f"the terminal stage may omit it")
            if stage.threshold < 0:
                raise ServingError("thresholds must be >= 0")
            if not pointwise_nested(model, stage.rate, stages[k + 1].rate):
                raise ServingError(
                    f"stage {k + 1} ({stages[k + 1].label()}) is not "
                    f"pointwise wider than stage {k} ({stage.label()})")
        self.model = model
        self.stages = stages
        # Resolved once: the request path never rebuilds a profile.
        self._profiles = [as_profile(stage.rate) for stage in stages]
        self.incremental = bool(incremental)
        #: Compiled stage plans of the recompute path; parameter-version
        #: checks recompile them after a mutation.
        self.plans = PlanCache(len(stages))
        self._row_madds: dict[tuple, int] = {}

    def stage_rates(self) -> list:
        return [stage.rate for stage in self.stages]

    def warm(self) -> int:
        """Compile the plans :meth:`run_batch` reads; returns how many.

        Every stage's plan on the recompute path; none on the
        incremental path, whose resumable plans compile per batch.
        """
        if self.incremental:
            return 0
        for profile in self._profiles:
            self.plans.get(self.model, profile)
        return len(self.stages)

    def run_batch(self, inputs: np.ndarray) -> CascadeResult:
        """Cascade one batch; returns predictions plus cost accounting."""
        x = np.ascontiguousarray(inputs, dtype=np.float32)
        n = x.shape[0]
        answer = self._resume(x) if self.incremental else self._recompute(x)
        predictions = np.zeros(n, dtype=np.int64)
        final_stage = np.zeros(n, dtype=np.int64)
        stage_rows: list[int] = []
        stage_spent: list[int] = []
        stage_full: list[int] = []
        escalations: list[tuple[int, int, int]] = []

        rows = local = np.arange(n)
        for k in range(len(self.stages)):
            if k:
                unsure = margins_of(logits) < self.stages[k - 1].threshold
                count = int(np.count_nonzero(unsure))
                if count == 0:
                    break
                local = np.nonzero(unsure)[0]
                rows = rows[local]
                escalations.append((k - 1, k, count))
            # ``full`` is what a from-scratch pass at this stage costs on
            # these rows: the recompute baseline the savings count against.
            logits, spent, full = answer(k, rows, local)
            stage_rows.append(len(rows))
            stage_spent.append(spent)
            stage_full.append(full)
            predictions[rows] = np.argmax(logits, axis=-1)
            final_stage[rows] = k
        return CascadeResult(predictions=predictions, stages=final_stage,
                             stage_rows=stage_rows, stage_spent=stage_spent,
                             stage_full=stage_full, escalations=escalations)

    def _recompute(self, x: np.ndarray):
        """Stage ``k`` answers its rows on the cached compiled plan."""
        row_shape = x.shape[1:]

        def answer(k, rows, local):
            plan = self.plans.get(self.model, self._profiles[k])
            logits = plan.run(x if k == 0 else x[rows])
            madds = len(rows) * self._madds_per_row(k, row_shape)
            return logits, madds, madds
        return answer

    def _resume(self, x: np.ndarray):
        """Stage ``k`` subsets the previous resumable pass and widens it."""
        plan = ResumablePlan(self.model, self._profiles[0])

        def answer(k, rows, local):
            nonlocal plan
            if k == 0:
                logits = plan.run(x)
            else:
                plan = plan.subset(local)
                logits = plan.widen(self._profiles[k])
            return logits, plan.spent_madds, plan.scratch_madds
        return answer

    def _madds_per_row(self, k: int, row_shape: tuple) -> int:
        """From-scratch multiply-adds of one row at stage ``k`` (cached)."""
        key = (k, row_shape)
        madds = self._row_madds.get(key)
        if madds is None:
            madds = self._row_madds[key] = scratch_madds(
                self.model, self._profiles[k], row_shape=row_shape)
        return madds

    def calibrate(self, inputs: np.ndarray, labels: np.ndarray) -> dict:
        """Per-stage *conditional* exit accuracy on a labeled holdout.

        A row exiting at a cheap stage did so because its margin was
        high, so its expected accuracy is far above the stage profile's
        marginal accuracy — this is the expected-accuracy table cascade
        serving should hand the runtime (keyed by stage rate).  Stages
        with no exits during calibration inherit the overall cascade
        accuracy.
        """
        result = self.run_batch(inputs)
        labels = np.asarray(labels)
        if labels.shape[0] != len(result):
            raise ServingError(
                f"{labels.shape[0]} labels for {len(result)} inputs")
        overall = float(np.mean(result.predictions == labels))
        accuracy = {}
        for k, stage in enumerate(self.stages):
            mask = result.stages == k
            accuracy[stage.rate] = (
                float(np.mean(result.predictions[mask] == labels[mask]))
                if mask.any() else overall)
        return accuracy

    def service_seconds(self, result: CascadeResult,
                        latency_profile) -> float:
        """Calibrated wall time of a cascaded batch.

        Each stage contributes its processed rows at the stage profile's
        calibrated per-sample time, scaled by the fraction of
        from-scratch multiply-adds actually executed — incremental
        escalation is proportionally cheaper than its recompute
        baseline, in the same units the rest of the runtime uses.
        """
        total = 0.0
        for stage, rows, spent, full in zip(self.stages, result.stage_rows,
                                            result.stage_spent,
                                            result.stage_full):
            if rows == 0:
                continue
            fraction = 1.0 if full == 0 else spent / full
            total += rows * latency_profile.per_sample(stage.rate) * fraction
        return total
