"""The continuous-time, event-driven inference runtime.

Where :func:`repro.serving.simulate_serving` models the Sec. 4.1
application as fixed ``T/2`` windows on one server, this engine runs a
*continuous* clock over a replica pool: per-request admission with
backpressure, dynamic batching (size or timeout), slice-rate-aware
dispatch, fault injection with health checking, and
retry-with-downgrade.  Every request leaves a structured trace; the run
is fully determined by the arrival trace, the calibrated latency
profiles, the fault plan, and one seed.

Event kinds, processed in timestamp order (ties broken by insertion):

* ``arrival`` — a request reaches the admission queue;
* ``expire``  — a queued request's deadline passes;
* ``batch``   — a batching-timeout wakeup (close a partial batch);
* ``complete``— an execution finishes (successfully or not);
* ``fault``   — a scheduled fault fires on a replica;
* ``health``  — the periodic health check probes the pool.

After every event the engine drains: while a batch is ready and an
in-rotation replica is idle, it closes a batch, picks its slice rate via
the controller, dispatches, and schedules the completion.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import obs
from ..errors import ServingError
from ..serving.simulator import accuracy_for_rate
from .batcher import Batch, DynamicBatcher
from .faults import FaultEvent, FaultPlan
from .pool import ReplicaPool
from .queue import AdmissionQueue
from .telemetry import (
    OUTCOME_COMPLETED,
    OUTCOME_EXPIRED,
    OUTCOME_FAILED,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    RequestTrace,
    RuntimeReport,
    rate_value,
)

_EPS = 1e-9


@dataclass
class RuntimeConfig:
    """Tunables of the runtime (defaults suit the serving examples)."""

    latency_slo: float
    queue_capacity: int = 512
    queue_policy: str = "reject"
    max_batch_size: int = 64
    batch_timeout: float = 0.0
    dispatch: str = "least-loaded"
    health_check_interval: float = 1.0
    detection_timeout: float = 0.05
    max_attempts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.latency_slo <= 0:
            raise ServingError("latency_slo must be positive")
        if self.health_check_interval <= 0:
            raise ServingError("health_check_interval must be positive")
        if self.detection_timeout <= 0:
            raise ServingError("detection_timeout must be positive")
        if self.max_attempts < 1:
            raise ServingError("max_attempts must be >= 1")


class InferenceRuntime:
    """Multi-replica serving runtime around a slice-rate controller."""

    def __init__(self, pool: ReplicaPool, controller, config: RuntimeConfig,
                 accuracy_of_rate: Mapping[float, float],
                 fault_plan: FaultPlan | None = None,
                 inputs: np.ndarray | None = None,
                 labels: np.ndarray | None = None,
                 slice_labels: Sequence[str] | Mapping[int, str] | None = None,
                 cascade=None):
        self.pool = pool
        self.controller = controller
        self.config = config
        self.accuracy_of_rate = dict(accuracy_of_rate)
        self.fault_plan = fault_plan or FaultPlan()
        self.inputs = inputs
        self.labels = labels
        # Cascade mode: a CascadeExecutor runs each batch at dispatch
        # time (cheapest stage first, margin-gated incremental
        # escalation) instead of the single-rate replica path.
        self.cascade = cascade
        if cascade is not None and inputs is None:
            raise ServingError(
                "cascade mode executes a real model; supply inputs")
        if labels is not None and inputs is None:
            raise ServingError("labels supplied without inputs")
        # Optional payload-index -> data-slice label mapping (e.g. the
        # member lists of diagnosed error slices); enables the
        # runtime_slice_requests_total breakdown and a ``slice``
        # attribute on request spans.
        if slice_labels is not None and inputs is None:
            raise ServingError("slice_labels supplied without inputs")
        if slice_labels is not None and not isinstance(slice_labels, Mapping):
            if len(slice_labels) != len(inputs):
                raise ServingError(
                    f"{len(slice_labels)} slice labels for "
                    f"{len(inputs)} inputs")
            slice_labels = {i: label
                            for i, label in enumerate(slice_labels)}
        self.slice_labels = slice_labels

    # ------------------------------------------------------------------
    def run(self, arrivals: Sequence[float], duration: float
            ) -> RuntimeReport:
        """Replay ``arrivals`` (sorted timestamps) through the runtime."""
        if duration <= 0:
            raise ServingError("duration must be positive")
        cfg = self.config
        self.queue = AdmissionQueue(cfg.queue_capacity, cfg.queue_policy)
        self.batcher = DynamicBatcher(self.controller, cfg.max_batch_size,
                                      cfg.batch_timeout)
        self.report = RuntimeReport(duration=duration)
        self._heap: list[tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        self._in_flight: dict[str, Batch] = {}

        for index, time in enumerate(np.asarray(arrivals, dtype=float)):
            trace = RequestTrace(
                request_id=index, arrival=float(time),
                deadline=float(time) + cfg.latency_slo,
                payload=(index % len(self.inputs)
                         if self.inputs is not None else None))
            self.report.traces.append(trace)
            self._push(float(time), "arrival", trace)
        for event in self.fault_plan:
            if event.time <= duration:
                self._push(event.time, "fault", event)
        tick = cfg.health_check_interval
        for k in range(1, int(duration / tick) + 1):
            self._push(k * tick, "health", None)

        while self._heap:
            now, _, kind, payload = heapq.heappop(self._heap)
            getattr(self, f"_on_{kind}")(now, payload)
            self._drain(now)
        if obs.enabled():
            obs.span_at("runtime.run", 0.0, duration,
                        requests=self.report.total_requests,
                        outcomes=self.report.outcome_counts(),
                        retries=self.report.retries,
                        goodput=self.report.goodput)
        return self.report

    # -- event handlers -------------------------------------------------
    def _on_arrival(self, now: float, trace: RequestTrace) -> None:
        admitted, shed = self.queue.offer(trace, now)
        for victim in shed:
            self._finalize(victim, OUTCOME_SHED, now)
        if admitted:
            self._schedule_queue_events(trace, now)
        else:
            self._finalize(trace, OUTCOME_REJECTED, now)

    def _on_expire(self, now: float, trace: RequestTrace) -> None:
        for victim in self.queue.expire(now):
            self._finalize(victim, OUTCOME_EXPIRED, now)

    def _on_batch(self, now: float, payload) -> None:
        pass  # pure wakeup; the post-event drain closes the batch

    def _on_fault(self, now: float, event: FaultEvent) -> None:
        if obs.enabled():
            obs.count("runtime_faults_total", kind=event.kind)
            obs.event("runtime.fault", at=now, kind=event.kind,
                      replica=event.replica_id)
        replica = self.pool.get(event.replica_id)
        if event.kind == "crash":
            replica.crash()
            batch = self._in_flight.pop(replica.replica_id, None)
            if batch is not None:
                # The failure is observed immediately: the in-flight
                # batch dies with the replica.
                replica.invalidate(now)
                self.pool.quarantine(replica.replica_id)
                self._retry(batch, now)
        elif event.kind == "slowdown":
            replica.slow_down(event.factor, now + event.duration)
        elif event.kind == "timeout":
            replica.timeout_window(now + event.duration)

    def _on_health(self, now: float, payload) -> None:
        self.pool.health_check()

    def _on_complete(self, now: float, payload) -> None:
        replica_id, token, batch, cause = payload
        replica = self.pool.get(replica_id)
        if token != replica.token:
            return  # invalidated by a crash that landed mid-batch
        self._in_flight.pop(replica_id, None)
        if cause == "ok":
            self._complete(batch, replica, now)
        else:
            if cause == "crash":
                self.pool.quarantine(replica_id)
            self._retry(batch, now)

    # -- dispatch -------------------------------------------------------
    def _drain(self, now: float) -> None:
        while True:
            if not self.batcher.ready(self.queue, now):
                break
            # A replica whose completion event is pending at this exact
            # timestamp is not dispatchable yet, even though its
            # busy_until says otherwise — dispatching would orphan the
            # in-flight batch.
            idle = [r for r in self.pool.idle(now)
                    if r.replica_id not in self._in_flight]
            if not idle:
                break
            batch, expired = self.batcher.form(self.queue, now)
            for victim in expired:
                self._finalize(victim, OUTCOME_EXPIRED, now)
            if batch is None:
                break
            replica = self.pool.pick(idle, len(batch), batch.rate, now)
            self._dispatch(batch, replica, now)

    def _dispatch(self, batch: Batch, replica, now: float) -> None:
        for request in batch.requests:
            request.started = now
            request.attempts += 1
            request.rate = batch.rate
            request.replica = replica.replica_id
        if replica.crashed:
            # Undetected dead replica: the dispatch wastes a detection
            # timeout before the failure is observed.
            cause, elapsed = "crash", self.config.detection_timeout
        elif replica.timing_out(now):
            cause, elapsed = "timeout", self.config.detection_timeout
        elif self.cascade is not None:
            cause = "ok"
            rows = self.inputs[[r.payload for r in batch.requests]]
            # Process-backed replicas cascade inside their own worker so
            # stage escalation (and its resumable intermediates) stays
            # local; in-process replicas share the engine's executor.
            runner = getattr(replica, "run_cascade", None)
            result = runner(rows) if runner is not None \
                else self.cascade.run_batch(rows)
            batch.cascade_result = result
            elapsed = replica.scaled_time(
                self.cascade.service_seconds(result, replica.profile), now)
        else:
            cause = "ok"
            elapsed = replica.service_time(len(batch), batch.rate, now)
        if obs.enabled():
            obs.count("runtime_dispatches_total", replica=replica.replica_id)
            obs.observe("runtime_service_seconds", elapsed, cause=cause)
        token = replica.begin(now + elapsed)
        self._in_flight[replica.replica_id] = batch
        self._push(now + elapsed, "complete",
                   (replica.replica_id, token, batch, cause))

    def _complete(self, batch: Batch, replica, now: float) -> None:
        if batch.cascade_result is not None:
            self._complete_cascade(batch, batch.cascade_result, now)
            return
        predictions = None
        if self.inputs is not None:
            rows = self.inputs[[r.payload for r in batch.requests]]
            predictions = replica.predict(rows, batch.rate)
        accuracy = accuracy_for_rate(self.accuracy_of_rate, batch.rate)
        for i, request in enumerate(batch.requests):
            request.completed = now
            request.outcome = OUTCOME_COMPLETED
            request.expected_accuracy = accuracy
            if predictions is not None and self.labels is not None:
                request.correct = bool(
                    predictions[i] == self.labels[request.payload])
            self._observe_request(request, now)

    def _complete_cascade(self, batch: Batch, result, now: float) -> None:
        """Book a cascaded batch: per-request stage, rate and accuracy."""
        stages = self.cascade.stages
        if obs.enabled():
            for frm, to, count in result.escalations:
                obs.count("cascade_escalations_total", amount=count,
                          **{"from": stages[frm].label(),
                             "to": stages[to].label()})
            if result.flops_saved:
                obs.count("cascade_flops_saved_total",
                          amount=int(result.flops_saved))
        for i, request in enumerate(batch.requests):
            stage = int(result.stages[i])
            rate = stages[stage].rate
            request.completed = now
            request.outcome = OUTCOME_COMPLETED
            request.rate = rate
            request.stage = stage
            request.expected_accuracy = accuracy_for_rate(
                self.accuracy_of_rate, rate)
            if self.labels is not None:
                request.correct = bool(
                    result.predictions[i] == self.labels[request.payload])
            self._observe_request(request, now)

    def _retry(self, batch: Batch, now: float) -> None:
        """Re-admit a failed batch, capping each retry at a narrower rate."""
        cap = self.controller.downgrade(batch.rate)
        for request in batch.requests:
            if request.attempts >= self.config.max_attempts:
                self._finalize(request, OUTCOME_FAILED, now)
                continue
            request.rate_cap = cap if request.rate_cap is None \
                else min(request.rate_cap, cap)
            admitted, shed = self.queue.offer(request, now)
            for victim in shed:
                self._finalize(victim, OUTCOME_SHED, now)
            if admitted:
                if obs.enabled():
                    obs.count("runtime_retries_total")
                self._schedule_queue_events(request, now)
            elif request.deadline <= now + _EPS:
                self._finalize(request, OUTCOME_EXPIRED, now)
            else:
                self._finalize(request, OUTCOME_FAILED, now)

    # -- bookkeeping ----------------------------------------------------
    def _schedule_queue_events(self, trace: RequestTrace, now: float) -> None:
        self._push(trace.deadline, "expire", trace)
        if self.config.batch_timeout > 0:
            self._push(now + self.config.batch_timeout, "batch", None)

    def _finalize(self, trace: RequestTrace, outcome: str,
                  now: float) -> None:
        trace.outcome = outcome
        self._observe_request(trace, now)

    def _observe_request(self, trace: RequestTrace, now: float) -> None:
        """Emit the request-lifecycle span tree and outcome counter.

        All timestamps are *simulated* time taken from the trace itself,
        so the emitted records are deterministic regardless of the
        tracer's clock.
        """
        if obs.disabled():
            return
        obs.count("runtime_requests_total", outcome=trace.outcome)
        slice_label = None
        if self.slice_labels is not None and trace.payload is not None:
            slice_label = self.slice_labels.get(trace.payload)
        if slice_label is not None:
            obs.count("runtime_slice_requests_total",
                      slice=slice_label, outcome=trace.outcome)
        end = trace.completed if trace.completed is not None else now
        extra = {} if slice_label is None else {"slice": slice_label}
        if trace.stage is not None:
            extra["stage"] = trace.stage
        span_id = obs.span_at(
            "runtime.request", trace.arrival, end,
            request_id=trace.request_id, outcome=trace.outcome,
            rate=rate_value(trace.rate), replica=trace.replica,
            attempts=trace.attempts, deadline_met=trace.deadline_met,
            **extra)
        # ``batched`` can be stale (from a pre-retry attempt) when a
        # re-admitted request dies in the queue; only a coherent wait is
        # worth a span.
        if trace.enqueued is not None and trace.batched is not None \
                and trace.batched >= trace.enqueued:
            obs.span_at("runtime.request.queue", trace.enqueued,
                        trace.batched, parent=span_id)
        if trace.started is not None and trace.completed is not None:
            obs.span_at("runtime.request.service", trace.started,
                        trace.completed, parent=span_id,
                        replica=trace.replica, rate=rate_value(trace.rate))

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))
