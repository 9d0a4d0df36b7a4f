"""Per-example evaluation records: the raw material of a diagnosis.

Aggregate accuracy per profile hides *which inputs* pay for the FLOPs a
narrow profile saves.  :func:`collect_eval_records` evaluates every
example under every requested profile and keeps the per-example facts —
predicted class, confidence margin, correct-or-not — plus one
full-width penultimate-layer embedding per example, the coordinate
space the slice miner clusters errors in.

Two properties matter here:

* **Plan speed** — the sweep runs through compiled inference plans
  (:class:`~repro.slicing.plans.PlanCache`), warmed once per profile,
  so a P-profile x N-example diagnosis costs P compiles plus N*P
  plan-speed rows rather than N*P live sliced forwards
  (``plan_cache_hits_total`` counts the warm lookups).
* **Determinism** — records stream through the :mod:`repro.obs` trace
  writer as ``diagnose.example`` / ``diagnose.embedding`` events, so a
  seeded run writes a byte-identical per-example JSONL eval trace, and
  :func:`records_from_trace` reconstructs the exact inputs of the
  mining stage from that file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import DataError
from ..slicing.plans import PlanCache
from ..slicing.profile import as_profile

#: Decimal places kept when an embedding coordinate is written to a
#: trace event (keeps the JSONL compact; mining is insensitive at 1e-6).
EMBEDDING_DECIMALS = 6


def profile_key(rate) -> str:
    """Canonical short string key for a scheduled rate or profile.

    Uniform rates render as their number (``"0.25"``); non-uniform
    profiles use their digest label (``"prof:1a2b3c4d"``).
    """
    return as_profile(rate).label()


@dataclass
class EvalRecord:
    """One example evaluated under one slice profile."""

    example_id: int
    profile: str
    predicted: int
    label: int
    margin: float
    correct: bool

    def to_attrs(self) -> dict:
        """JSON-safe attribute dict (the ``diagnose.example`` payload)."""
        return {
            "example": self.example_id,
            "profile": self.profile,
            "predicted": self.predicted,
            "label": self.label,
            "margin": self.margin,
            "correct": self.correct,
        }

    @classmethod
    def from_attrs(cls, attrs: dict) -> "EvalRecord":
        return cls(
            example_id=int(attrs["example"]),
            profile=str(attrs["profile"]),
            predicted=int(attrs["predicted"]),
            label=int(attrs["label"]),
            margin=float(attrs["margin"]),
            correct=bool(attrs["correct"]),
        )


def penultimate_embedding(model, inputs: np.ndarray,
                          batch_size: int = 256,
                          use_features: bool = True) -> np.ndarray:
    """Full-width penultimate representation of every example.

    Uses the model's ``features()`` method when it has one; otherwise
    captures the output of the model's last width-controlling slice
    point (the layer feeding the head) via
    :func:`~repro.diagnose.attribution.capture_activations`.  Always
    evaluated at the full profile, so every example lives in one shared
    coordinate space regardless of which profiles misclassify it.
    """
    from ..slicing.budget import width_slice_points
    from ..slicing.context import slice_profile
    from ..tensor import Tensor, no_grad
    from .attribution import capture_activations

    inputs = np.asarray(inputs)
    model.eval()
    chunks: list[np.ndarray] = []
    feature_fn = getattr(model, "features", None) if use_features else None
    last_point = None
    if feature_fn is None:
        points = width_slice_points(model)
        if not points:
            raise DataError(
                "model has no features() method and no width slice points; "
                "cannot extract a penultimate embedding")
        last_point = points[-1][0]
    with no_grad():
        with slice_profile(1.0):
            for start in range(0, len(inputs), batch_size):
                batch = inputs[start:start + batch_size]
                x = batch if batch.dtype.kind in "iu" else Tensor(batch)
                if feature_fn is not None:
                    out = feature_fn(x)
                    chunks.append(np.asarray(out.data, dtype=np.float64))
                else:
                    with capture_activations(model, [last_point]) as acts:
                        model(x)
                    chunks.append(np.asarray(acts[last_point],
                                             dtype=np.float64))
    flat = np.concatenate(chunks, axis=0)
    return flat.reshape(len(inputs), -1)


def collect_eval_records(model, inputs: np.ndarray, labels: np.ndarray,
                         profiles, *, plan_cache: PlanCache | None = None,
                         batch_size: int = 256,
                         ) -> tuple[list[EvalRecord], np.ndarray]:
    """Evaluate each example under each profile through compiled plans.

    Returns ``(records, embeddings)``: one :class:`EvalRecord` per
    ``(example, profile)`` pair (profiles ordered narrow to wide,
    deduplicated by fingerprint) and the ``(N, D)`` full-width
    penultimate embeddings.  When observability is enabled the records
    stream to the trace as ``diagnose.example`` events plus one
    ``diagnose.embedding`` event per example, and
    ``diagnose_examples_total`` / ``diagnose_errors_total`` count the
    sweep per profile.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    if len(inputs) != len(labels):
        raise DataError(f"{len(inputs)} inputs vs {len(labels)} labels")
    if len(inputs) == 0:
        raise DataError("cannot diagnose an empty evaluation set")
    cache = plan_cache if plan_cache is not None else PlanCache()
    entries = []
    seen: set[str] = set()
    for rate in profiles:
        prof = as_profile(rate)
        if prof.fingerprint() in seen:
            continue
        seen.add(prof.fingerprint())
        entries.append(prof)
    if not entries:
        raise DataError("diagnosis needs at least one profile")
    entries.sort()                       # narrow -> wide
    model.eval()
    for prof in entries:                 # warm: one compile per profile
        cache.get(model, prof)

    embeddings = penultimate_embedding(model, inputs, batch_size)
    if obs.enabled():
        for i in range(len(inputs)):
            obs.event("diagnose.embedding", example=i, embedding=[
                round(float(v), EMBEDDING_DECIMALS) for v in embeddings[i]])

    records: list[EvalRecord] = []
    for prof in entries:
        key = prof.label()
        errors = 0
        for start in range(0, len(inputs), batch_size):
            plan = cache.get(model, prof)        # hit: plan-speed sweep
            logits = np.asarray(plan.run(inputs[start:start + batch_size]))
            order = np.sort(logits, axis=1)
            margins = (order[:, -1] - order[:, -2] if logits.shape[1] > 1
                       else order[:, -1])
            predicted = logits.argmax(axis=1)
            for offset in range(len(logits)):
                i = start + offset
                record = EvalRecord(
                    example_id=i, profile=key,
                    predicted=int(predicted[offset]),
                    label=int(labels[i]),
                    margin=float(margins[offset]),
                    correct=bool(predicted[offset] == labels[i]))
                records.append(record)
                errors += not record.correct
                if obs.enabled():
                    obs.event("diagnose.example", **record.to_attrs())
        if obs.enabled():
            obs.count("diagnose_examples_total", len(inputs), profile=key)
            obs.count("diagnose_errors_total", errors, profile=key)
    return records, embeddings


def records_from_trace(trace_records: list[dict]
                       ) -> tuple[list[EvalRecord], np.ndarray | None]:
    """Rebuild ``(records, embeddings)`` from loaded JSONL trace records.

    The inverse of the events :func:`collect_eval_records` emits; reads
    the output of :func:`repro.obs.summary.load_records`.  Embeddings
    are ``None`` when the trace carries no ``diagnose.embedding``
    events.
    """
    records: list[EvalRecord] = []
    vectors: dict[int, list[float]] = {}
    for record in trace_records:
        if record.get("kind") != "event":
            continue
        if record.get("name") == "diagnose.example":
            records.append(EvalRecord.from_attrs(record["attrs"]))
        elif record.get("name") == "diagnose.embedding":
            attrs = record["attrs"]
            vectors[int(attrs["example"])] = [
                float(v) for v in attrs["embedding"]]
    if not vectors:
        return records, None
    size = max(vectors) + 1
    if sorted(vectors) != list(range(size)):
        raise DataError("trace is missing embeddings for some examples")
    return records, np.asarray([vectors[i] for i in range(size)])


# ----------------------------------------------------------------------
# Aggregations over records
# ----------------------------------------------------------------------
def correctness_by_profile(records: list[EvalRecord],
                           num_examples: int) -> dict[str, np.ndarray]:
    """``{profile_key: bool array (N,)}`` — the mining stage's input."""
    out: dict[str, np.ndarray] = {}
    for record in records:
        series = out.get(record.profile)
        if series is None:
            series = out[record.profile] = np.zeros(num_examples, dtype=bool)
        series[record.example_id] = record.correct
    return out


def accuracy_by_profile(records: list[EvalRecord]) -> dict[str, float]:
    """Aggregate accuracy per profile key."""
    totals: dict[str, list[int]] = {}
    for record in records:
        entry = totals.setdefault(record.profile, [0, 0])
        entry[0] += record.correct
        entry[1] += 1
    return {key: hit / total for key, (hit, total) in totals.items()}


def mean_margin_by_profile(records: list[EvalRecord]) -> dict[str, float]:
    """Mean confidence margin per profile key."""
    sums: dict[str, list[float]] = {}
    for record in records:
        entry = sums.setdefault(record.profile, [0.0, 0])
        entry[0] += record.margin
        entry[1] += 1
    return {key: total / count for key, (total, count) in sums.items()}
