"""Dynamic batching: close a batch on size or timeout, pick its rate.

A batch closes as soon as either ``max_batch_size`` requests are waiting
or the head of the queue has waited ``timeout`` seconds (``timeout=0``
batches whatever is queued the moment a replica frees up).  The slice
rate is chosen *per batch* by a controller from :mod:`repro.serving` —
the paper's elastic rule ``n * cost(r) <= T/2`` over the controller's
cost table, or a fixed-rate baseline.

Retry-with-downgrade hooks in here: any request carrying a ``rate_cap``
(set after a failed attempt) caps the whole batch's rate, so a retried
request is never re-executed wider than its original attempt.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..errors import ServingError
from .cascade import CascadeResult
from .queue import AdmissionQueue
from .telemetry import RequestTrace

_EPS = 1e-9


def _leq(a, b) -> bool:
    """``a <= b`` for rates or profiles, with the float tolerance.

    Profiles coerce to their mean rate, so a cap set by a non-uniform
    profile bounds later batches by overall width.
    """
    return float(a) <= float(b) + _EPS


@dataclass
class Batch:
    """A closed batch: the requests, the chosen slice rate, and when.

    ``cascade_result`` is set when a cascade serves the batch, at
    dispatch, and read back when the batch completes.
    """

    requests: list[RequestTrace]
    rate: float
    formed_at: float
    cascade_result: CascadeResult | None = None

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Size-or-timeout batch former around a slice-rate controller."""

    def __init__(self, controller, max_batch_size: int,
                 timeout: float = 0.0):
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if timeout < 0:
            raise ServingError(f"timeout must be >= 0, got {timeout}")
        if controller.choose(1) is None:
            raise ServingError(
                "controller cannot serve even a single request within "
                "the SLO; no batch is ever feasible")
        self.controller = controller
        self.max_batch_size = max_batch_size
        self.timeout = timeout

    def ready(self, queue: AdmissionQueue, now: float) -> bool:
        """Whether a batch should close right now."""
        if not len(queue):
            return False
        if len(queue) >= self.max_batch_size:
            return True
        return queue.oldest_wait(now) >= self.timeout - _EPS

    def close_time(self, queue: AdmissionQueue, now: float) -> float | None:
        """When the current head will force a batch (None if queue empty)."""
        if not len(queue):
            return None
        return now - queue.oldest_wait(now) + self.timeout

    def form(self, queue: AdmissionQueue, now: float
             ) -> tuple[Batch | None, list[RequestTrace]]:
        """Close a batch from the queue front.

        Returns ``(batch, expired)``.  If the controller cannot serve the
        full candidate batch within the SLO (``choose`` returns None),
        the batch shrinks to the controller's capacity at its ``floor``
        (cheapest candidate) and the leftovers return to the queue —
        continuous time turns overload into queueing delay, and the
        per-request deadlines turn sustained overload into expirations.
        """
        taken, expired = queue.pop(self.max_batch_size, now)
        if not taken:
            return None, expired
        rate = self.controller.choose(len(taken))
        if rate is None:
            capacity = self._floor_capacity()
            keep, leftover = taken[:capacity], taken[capacity:]
            queue.push_back(leftover)
            taken = keep
            rate = self.controller.choose(len(taken))
            if rate is None:  # pragma: no cover - guarded by __init__
                queue.push_back(taken)
                return None, expired
        rate = self._apply_caps(taken, rate)
        for request in taken:
            request.batched = now
        if obs.enabled():
            obs.observe("runtime_batch_size", float(len(taken)))
            obs.gauge("runtime_batch_occupancy",
                      len(taken) / self.max_batch_size)
            obs.count("runtime_batches_total", rate=f"{rate:g}")
        return Batch(requests=taken, rate=rate, formed_at=now), expired

    # -- internals ------------------------------------------------------
    def _floor_capacity(self) -> int:
        """Largest batch the controller can serve at its cheapest candidate."""
        return max(self.controller.max_batch(self.controller.floor), 1)

    def _apply_caps(self, requests: list[RequestTrace], rate: float) -> float:
        """Clamp the batch rate to the tightest retry downgrade cap."""
        caps = [r.rate_cap for r in requests if r.rate_cap is not None]
        if not caps:
            return rate
        cap = min(caps)
        if _leq(rate, cap):
            return rate
        feasible = [r for r in self.controller.rates if _leq(r, cap)]
        return max(feasible) if feasible else self.controller.floor
