"""Replica pool: rotation, health belief, and slice-rate-aware dispatch.

The pool tracks which replicas it *believes* are healthy (rotation).
A crashed replica keeps receiving dispatches until the failure is
observed — either an in-flight batch dies with it, a fresh dispatch
times out, or a periodic health check probes it — which is what makes
the fault model interesting: detection latency costs goodput.

Dispatch is slice-rate-aware: a replica's score is its *projected
completion time* for this batch at this rate (queue drain + calibrated
service time, including any active slowdown), so heterogeneous and
degraded replicas are weighed correctly.

Policies: ``"least-loaded"`` scans every replica in rotation;
``"power-of-two"`` samples two with a seeded generator and keeps the
better — the classic O(1) approximation with near-optimal balance.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .. import obs
from ..errors import ServingError
from .replica import Replica

DISPATCH_POLICIES = ("least-loaded", "power-of-two")


class ReplicaPool:
    """An ordered set of replicas with a dispatch policy."""

    def __init__(self, replicas: Iterable[Replica],
                 dispatch: str = "least-loaded", seed: int = 0):
        self.replicas = list(replicas)
        if not self.replicas:
            raise ServingError("pool needs at least one replica")
        ids = [r.replica_id for r in self.replicas]
        if len(set(ids)) != len(ids):
            raise ServingError(f"duplicate replica ids: {ids}")
        if dispatch not in DISPATCH_POLICIES:
            raise ServingError(
                f"unknown dispatch {dispatch!r}; choose from "
                f"{DISPATCH_POLICIES}")
        self.dispatch = dispatch
        self._rng = np.random.default_rng(seed)
        self._out_of_rotation: set[str] = set()

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self) -> Iterator[Replica]:
        return iter(self.replicas)

    def get(self, replica_id: str) -> Replica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise ServingError(f"no replica {replica_id!r} in pool")

    # -- health belief --------------------------------------------------
    def quarantine(self, replica_id: str) -> None:
        """Take a replica out of rotation (failure observed)."""
        if obs.enabled() and replica_id not in self._out_of_rotation:
            obs.count("runtime_quarantines_total")
        self._out_of_rotation.add(replica_id)
        if obs.enabled():
            obs.gauge("runtime_replicas_in_rotation",
                      len(self.replicas) - len(self._out_of_rotation))

    def in_rotation(self) -> list[Replica]:
        return [r for r in self.replicas
                if r.replica_id not in self._out_of_rotation]

    def health_check(self) -> list[Replica]:
        """Probe every replica in rotation; quarantine dead ones."""
        detected = [r for r in self.in_rotation() if r.crashed]
        if detected and obs.enabled():
            obs.count("runtime_health_detections_total",
                      amount=len(detected))
        for replica in detected:
            self.quarantine(replica.replica_id)
        return detected

    # -- plan warm-up ---------------------------------------------------
    def warm_plans(self, rates) -> int:
        """Pre-compile inference plans for ``rates`` on every replica.

        Run once before serving so the first request at each rate does
        not pay the compilation cost; returns the total number of plans
        ensured across the pool.
        """
        rates = list(rates)
        return sum(replica.warm_plans(rates) for replica in self.replicas)

    def warm_cascade(self, executor) -> int:
        """Pre-compile the cascade's stage plans; returns how many.

        In-process replicas share the engine's executor, so its own
        plan cache is what every cascaded dispatch reads
        (:meth:`~repro.runtime.cascade.CascadeExecutor.warm`).
        """
        return executor.warm()

    # -- dispatch -------------------------------------------------------
    def idle(self, now: float) -> list[Replica]:
        """Replicas in rotation that are free to accept a batch now."""
        return [r for r in self.in_rotation() if r.busy_until <= now + 1e-12]

    def pick(self, candidates: list[Replica], batch_size: int, rate: float,
             now: float) -> Replica:
        """Choose a replica for a batch under the pool's dispatch policy."""
        if not candidates:
            raise ServingError("no candidate replicas to dispatch to")
        if self.dispatch == "power-of-two" and len(candidates) >= 2:
            first, second = self._rng.choice(len(candidates), size=2,
                                             replace=False)
            candidates = [candidates[int(first)], candidates[int(second)]]
        return min(candidates,
                   key=lambda r: (self._score(r, batch_size, rate, now),
                                  r.replica_id))

    @staticmethod
    def _score(replica: Replica, batch_size: int, rate: float,
               now: float) -> float:
        start = max(replica.busy_until, now)
        return start + replica.service_time(batch_size, rate, now)

    # -- lifecycle -------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Release pool resources; a no-op for in-process replicas.

        Exists so callers (cluster nodes, the CLI) can tear any pool
        down uniformly — :class:`~repro.runtime.workers.ProcessReplicaPool`
        overrides this to stop its workers and unlink the shared-memory
        arena.
        """

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
