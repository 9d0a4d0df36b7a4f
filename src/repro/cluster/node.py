"""Nodes with memory/FLOPs budgets, and the per-profile cost tables.

A :class:`ProfileCost` bundles everything the fleet layer needs to know
about serving one slice profile: calibrated per-sample seconds (from a
:class:`~repro.runtime.replica.LatencyProfile`), expected accuracy,
multiply-adds per request (:func:`~repro.metrics.flops.measured_flops`),
and the memory footprint (:func:`~repro.metrics.flops.memory_of_profile`).
A :class:`CostTable` orders those entries cheapest-first — the same
ordering :class:`~repro.serving.ProfileTableController` degrades
through — and can build that controller directly for the discrete
runtime path.

A :class:`Node` is one machine: a memory budget that bounds how many
replicas it hosts, a FLOPs/second budget that caps its aggregate
throughput, and a :class:`~repro.runtime.pool.ReplicaPool` of calibrated
:class:`~repro.runtime.replica.Replica` objects so the fleet reuses the
runtime's dispatch abstractions rather than reinventing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ServingError
from ..runtime.pool import ReplicaPool
from ..runtime.replica import LatencyProfile, Replica
from ..serving.controller import ProfileTableController
from ..slicing.profile import as_profile

# Node lifecycle states.
NODE_BOOTING = "booting"    # provisioned, not yet serving
NODE_ACTIVE = "active"      # in rotation, taking new traffic
NODE_DRAINING = "draining"  # no new traffic; finishing in-flight work
NODE_RETIRED = "retired"    # gone; no longer billed

GiB = float(1 << 30)


@dataclass(frozen=True)
class ProfileCost:
    """Serving costs of one slice profile (uniform rate or per-layer)."""

    profile: object            # SliceProfile (floats coerce on build)
    per_sample_s: float        # calibrated service seconds per request
    accuracy: float            # expected accuracy when serving at it
    flops: float               # multiply-adds per request
    param_bytes: float         # resident weight bytes (deployed alone)
    activation_bytes: float    # peak activation bytes per request
    kv_bytes_per_session: float = 0.0  # per-resident-session KV cache

    def __post_init__(self):
        if self.per_sample_s <= 0:
            raise ServingError("per_sample_s must be positive")
        if self.flops <= 0 or self.param_bytes <= 0:
            raise ServingError("flops and param_bytes must be positive")
        if self.kv_bytes_per_session < 0:
            raise ServingError("kv_bytes_per_session must be >= 0")

    def fingerprint(self) -> str:
        return as_profile(self.profile).fingerprint()

    def label(self) -> str:
        profile = as_profile(self.profile)
        return f"{float(profile):g}" if profile.uniform \
            else profile.fingerprint()

    def replica_qps(self) -> float:
        """Sustained throughput of one replica pipelining T/2 batches."""
        return 1.0 / self.per_sample_s

    def to_dict(self) -> dict:
        return {
            "profile": self.fingerprint(),
            "per_sample_s": self.per_sample_s,
            "accuracy": self.accuracy,
            "flops": self.flops,
            "param_bytes": self.param_bytes,
            "activation_bytes": self.activation_bytes,
            "kv_bytes_per_session": self.kv_bytes_per_session,
        }


class CostTable:
    """Cost-ordered profile candidates (cheapest first).

    The same ordering :class:`~repro.serving.ProfileTableController`
    uses: the fleet's window-level chooser walks it from cheap to
    expensive keeping the most accurate profile that fits, and the
    autoscaler degrades down it before adding nodes.
    """

    def __init__(self, entries: Sequence[ProfileCost]):
        entries = list(entries)
        if not entries:
            raise ServingError("CostTable needs at least one profile")
        self.entries = sorted(
            entries, key=lambda e: (e.per_sample_s,
                                    float(as_profile(e.profile)),
                                    e.fingerprint()))
        fingerprints = [e.fingerprint() for e in self.entries]
        if len(set(fingerprints)) != len(fingerprints):
            raise ServingError(f"duplicate profiles: {fingerprints}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def cheapest(self) -> ProfileCost:
        return self.entries[0]

    @property
    def widest(self) -> ProfileCost:
        return self.entries[-1]

    def get(self, profile) -> ProfileCost:
        fingerprint = as_profile(profile).fingerprint()
        for entry in self.entries:
            if entry.fingerprint() == fingerprint:
                return entry
        raise ServingError(f"no profile {fingerprint!r} in table")

    def feasible(self, latency_slo: float) -> "CostTable":
        """Entries able to serve a single request inside the T/2 window."""
        fits = [e for e in self.entries
                if e.per_sample_s <= latency_slo / 2.0]
        if not fits:
            raise ServingError(
                f"no profile serves one request within slo/2 = "
                f"{latency_slo / 2.0:g}s")
        return CostTable(fits)

    def floor_entry(self, accuracy_floor: float) -> ProfileCost:
        """The cheapest profile whose accuracy clears ``accuracy_floor``."""
        for entry in self.entries:
            if entry.accuracy >= accuracy_floor:
                return entry
        raise ServingError(
            f"no profile reaches accuracy floor {accuracy_floor:g}; "
            f"best is {self.widest.accuracy:g}")

    def controller(self, latency_slo: float) -> ProfileTableController:
        """A :class:`ProfileTableController` over this table's costs."""
        return ProfileTableController(
            {e.profile: e.per_sample_s for e in self.entries}, latency_slo)

    # -- cascade costing -----------------------------------------------
    def cascade_controller(self, latency_slo: float,
                           stage_profiles: Sequence | None = None,
                           reach_fractions: Sequence[float] | None = None):
        """A :class:`~repro.serving.CascadeController` over these costs.

        ``stage_profiles`` picks the cascade rungs (defaults to every
        entry, cheapest first); ``reach_fractions`` are the fraction of
        requests expected to reach each rung (worst case 1.0), which the
        runtime's measured escalation counters exist to calibrate.
        """
        from ..serving.controller import CascadeController

        if stage_profiles is None:
            stages = list(self.entries)
        else:
            stages = [self.get(profile) for profile in stage_profiles]
        return CascadeController(
            [e.profile for e in stages],
            {e.profile: e.per_sample_s for e in stages},
            latency_slo, reach_fractions=reach_fractions)

    def cascade_summary(self, stage_profiles: Sequence | None = None,
                        reach_fractions: Sequence[float] | None = None,
                        incremental_fractions: Sequence[float] | None = None
                        ) -> dict:
        """Planning-time expectations for a cascade over these entries.

        ``reach_fractions[k]`` is the fraction of requests reaching
        stage ``k`` (``[1.0, ...]`` worst case); the *exit* fraction of
        each stage follows.  ``incremental_fractions[k]`` optionally
        discounts escalated stages to the fraction of from-scratch
        multiply-adds an incremental
        :meth:`~repro.slicing.resume.ResumablePlan.widen` actually
        spends there (1.0 = recompute baseline).  Returns expected
        per-sample seconds, FLOPs and blended accuracy — the cluster
        planner's cascade analogue of a single :class:`ProfileCost` row.
        """
        if stage_profiles is None:
            stages = list(self.entries)
        else:
            stages = [self.get(profile) for profile in stage_profiles]
        if len(stages) < 2:
            raise ServingError("a cascade needs at least two stages")
        count = len(stages)
        reach = [1.0] * count if reach_fractions is None \
            else [float(f) for f in reach_fractions]
        inc = [1.0] * count if incremental_fractions is None \
            else [float(f) for f in incremental_fractions]
        if len(reach) != count or len(inc) != count:
            raise ServingError(
                f"expected {count} reach/incremental fractions")
        # Fraction exiting at stage k = reach_k - reach_{k+1}.
        exits = [reach[k] - (reach[k + 1] if k + 1 < count else 0.0)
                 for k in range(count)]
        if any(e < -1e-12 for e in exits):
            raise ServingError("reach fractions must be non-increasing")
        seconds = sum(r * e.per_sample_s * f
                      for r, e, f in zip(reach, stages, inc))
        flops = sum(r * e.flops * f for r, e, f in zip(reach, stages, inc))
        accuracy = sum(x * e.accuracy for x, e in zip(exits, stages))
        return {
            "stages": [e.label() for e in stages],
            "reach_fractions": reach,
            "exit_fractions": exits,
            "per_sample_s": seconds,
            "flops": flops,
            "expected_accuracy": accuracy,
        }

    def to_rows(self) -> list[list]:
        return [[e.label(), e.accuracy, e.per_sample_s * 1e3, e.flops,
                 e.param_bytes, e.activation_bytes] for e in self.entries]

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries]}

    # -- construction ---------------------------------------------------
    @classmethod
    def from_model(cls, model, input_shape: tuple[int, ...],
                   accuracy_of_rate: Mapping,
                   latency_profile: LatencyProfile,
                   input_builder=None) -> "CostTable":
        """Measure FLOPs and memory per profile; costs from the latency
        profile (analytic ``t * r**2`` unless calibrated per rate)."""
        from ..metrics.flops import measured_flops, memory_of_profile

        entries = []
        for rate, accuracy in accuracy_of_rate.items():
            profile = as_profile(rate)
            memory = memory_of_profile(model, input_shape, rate=profile,
                                       input_builder=input_builder)
            entries.append(ProfileCost(
                profile=profile,
                per_sample_s=latency_profile.per_sample(profile),
                accuracy=float(accuracy),
                flops=float(measured_flops(model, input_shape, rate=profile,
                                           input_builder=input_builder)),
                param_bytes=float(memory["param_bytes"]),
                activation_bytes=float(memory["peak_activation_bytes"])
                / max(memory["batch"], 1),
                kv_bytes_per_session=float(
                    memory.get("kv_cache_bytes_per_session", 0)),
            ))
        return cls(entries)


@dataclass(frozen=True)
class NodeSpec:
    """A machine shape: how much a node can hold and how fast it is."""

    memory_bytes: float = 16 * GiB
    flops_per_sec: float = 5e9
    max_replicas: int = 8
    serving_batch: int = 32   # per-replica batch the footprint plans for
    sessions_per_replica: int = 0  # resident decoding sessions budgeted

    def __post_init__(self):
        if self.memory_bytes <= 0 or self.flops_per_sec <= 0:
            raise ServingError("node budgets must be positive")
        if self.max_replicas < 1 or self.serving_batch < 1:
            raise ServingError(
                "max_replicas and serving_batch must be >= 1")
        if self.sessions_per_replica < 0:
            raise ServingError("sessions_per_replica must be >= 0")

    def replica_footprint(self, cost: ProfileCost,
                          resident: ProfileCost | None = None) -> float:
        """Bytes one replica needs: resident weights + a serving batch.

        ``resident`` names the profile whose *weights* stay loaded —
        for an elastic replica that slices one full model this is the
        widest entry; a fixed-rate replica deploys only its own prefix.
        Stateful decoder profiles additionally hold one KV cache per
        budgeted resident session (``sessions_per_replica``), priced at
        the *serving* profile's rate — narrow profiles cache fewer
        heads, so they admit more sessions in the same memory.
        """
        weights = (resident or cost).param_bytes
        return weights + cost.activation_bytes * self.serving_batch \
            + cost.kv_bytes_per_session * self.sessions_per_replica

    def max_sessions(self, cost: ProfileCost,
                     resident: ProfileCost | None = None) -> float:
        """Resident sessions one replica's leftover memory admits.

        The KV-residency ceiling at this profile: memory left after the
        weights and serving batch, divided by the per-session cache.
        ``inf`` for stateless profiles (no KV cache).
        """
        if cost.kv_bytes_per_session <= 0:
            return float("inf")
        weights = (resident or cost).param_bytes
        free = self.memory_bytes - weights \
            - cost.activation_bytes * self.serving_batch
        return max(0.0, free // cost.kv_bytes_per_session)

    def replicas_for(self, cost: ProfileCost,
                     resident: ProfileCost | None = None) -> int:
        """Replicas the memory budget admits (capped at ``max_replicas``)."""
        fit = int(self.memory_bytes // self.replica_footprint(cost, resident))
        if fit < 1:
            raise ServingError(
                f"node memory {self.memory_bytes:.3g}B cannot hold one "
                f"replica ({self.replica_footprint(cost, resident):.3g}B)")
        return min(fit, self.max_replicas)

    def capacity_qps(self, cost: ProfileCost, replicas: int) -> float:
        """Node throughput at a profile: replica- or FLOPs-bound."""
        if replicas < 1:
            raise ServingError("replicas must be >= 1")
        return min(replicas * cost.replica_qps(),
                   self.flops_per_sec / cost.flops)

    def to_dict(self) -> dict:
        return {
            "memory_bytes": self.memory_bytes,
            "flops_per_sec": self.flops_per_sec,
            "max_replicas": self.max_replicas,
            "serving_batch": self.serving_batch,
            "sessions_per_replica": self.sessions_per_replica,
        }


class Node:
    """One machine in the fleet, hosting a pool of calibrated replicas.

    The replicas are simulated: they advance the clock by their
    calibrated latency and run no model.
    """

    def __init__(self, node_id: str, spec: NodeSpec,
                 latency_profile: LatencyProfile, replicas: int,
                 state: str = NODE_ACTIVE, ready_at: int = 0,
                 seed: int = 0):
        if replicas < 1:
            raise ServingError("a node hosts at least one replica")
        if replicas > spec.max_replicas:
            raise ServingError(
                f"{replicas} replicas exceed the node cap "
                f"{spec.max_replicas}")
        self.node_id = str(node_id)
        self.spec = spec
        self.replicas = replicas
        self.state = state
        self.ready_at = ready_at        # window index the node boots at
        self.in_flight = 0              # requests assigned, not yet done
        self.pool = ReplicaPool(
            [Replica(f"{self.node_id}/r{i}", latency_profile)
             for i in range(replicas)],
            seed=seed)

    def __repr__(self) -> str:
        return (f"Node({self.node_id!r}, {self.state}, "
                f"replicas={self.replicas})")

    # -- lifecycle ------------------------------------------------------
    @property
    def serving(self) -> bool:
        """Taking new traffic this window."""
        return self.state == NODE_ACTIVE

    @property
    def alive(self) -> bool:
        """Provisioned and billed (anything but retired)."""
        return self.state != NODE_RETIRED

    def boot(self) -> None:
        if self.state != NODE_BOOTING:
            raise ServingError(f"{self.node_id} is not booting")
        self.state = NODE_ACTIVE

    def drain(self) -> None:
        """Stop accepting traffic; in-flight work keeps running."""
        if self.state != NODE_ACTIVE:
            raise ServingError(f"can only drain an active node, "
                               f"{self.node_id} is {self.state}")
        self.state = NODE_DRAINING

    def retire(self) -> None:
        """Release the machine — only once nothing is in flight."""
        if self.in_flight > 0:
            raise ServingError(
                f"{self.node_id} still has {self.in_flight} requests "
                "in flight; drain must never evict them")
        self.state = NODE_RETIRED

    # -- capacity -------------------------------------------------------
    def capacity_qps(self, cost: ProfileCost) -> float:
        return self.spec.capacity_qps(cost, self.replicas)

    def assign(self, requests: int) -> None:
        if not self.serving:
            raise ServingError(
                f"cannot assign new work to {self.state} node "
                f"{self.node_id}")
        self.in_flight += int(requests)

    def complete(self, requests: int | None = None) -> None:
        done = self.in_flight if requests is None else int(requests)
        if done > self.in_flight:
            raise ServingError("completing more requests than in flight")
        self.in_flight -= done
