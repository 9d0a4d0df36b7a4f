"""Continuous-time multi-replica inference runtime (Sec. 4.1, scaled up).

Event-driven serving on top of the paper's elastic degradation rule:
per-request admission with backpressure (:mod:`.queue`), dynamic
batching with per-batch slice-rate selection (:mod:`.batcher`), a
replica pool with slice-rate-aware dispatch (:mod:`.replica`,
:mod:`.pool`), deterministic fault injection with health checking and
retry-with-downgrade (:mod:`.faults`), confidence cascades that
escalate on cached compiled plans or resume exactly (:mod:`.cascade`), and
structured per-request telemetry (:mod:`.telemetry`), all orchestrated
by :mod:`.engine`.
"""

from .telemetry import (
    OUTCOME_COMPLETED,
    OUTCOME_EXPIRED,
    OUTCOME_FAILED,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    OUTCOMES,
    RequestTrace,
    RuntimeReport,
    format_seconds,
    percentiles,
)
from .queue import AdmissionQueue
from .batcher import Batch, DynamicBatcher
from .replica import LatencyProfile, Replica
from .pool import ReplicaPool
from .faults import FaultEvent, FaultPlan
from .cascade import CascadeExecutor, CascadeResult, CascadeStage, margins_of
from .workers import ProcessReplicaPool, WorkerReplica
from .engine import InferenceRuntime, RuntimeConfig

__all__ = [
    "OUTCOMES",
    "OUTCOME_COMPLETED",
    "OUTCOME_REJECTED",
    "OUTCOME_SHED",
    "OUTCOME_EXPIRED",
    "OUTCOME_FAILED",
    "RequestTrace",
    "RuntimeReport",
    "format_seconds",
    "percentiles",
    "AdmissionQueue",
    "Batch",
    "DynamicBatcher",
    "LatencyProfile",
    "Replica",
    "ReplicaPool",
    "FaultEvent",
    "FaultPlan",
    "CascadeStage",
    "CascadeResult",
    "CascadeExecutor",
    "margins_of",
    "ProcessReplicaPool",
    "WorkerReplica",
    "InferenceRuntime",
    "RuntimeConfig",
]
