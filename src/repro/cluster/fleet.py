"""A sharded fleet of nodes with capacity-aware routing.

The fleet serves traffic at two granularities:

* **Window (fluid)** — :meth:`Fleet.serve_window` serves one
  fixed-length window of demand: it picks the slice profile with the
  :class:`~repro.serving.ProfileTableController` rule generalized to
  fleet capacity (most accurate candidate whose demand fits), splits the
  demand over serving nodes least-loaded-first, and returns a
  :class:`WindowRecord`.  This is what lets the simulator sweep a day of
  millions-of-users traffic in milliseconds.
* **Request (discrete)** — :meth:`Fleet.runtime_pool` exposes every
  serving replica as one :class:`~repro.runtime.pool.ReplicaPool`, so a
  fleet plugs directly into the continuous-time
  :class:`~repro.runtime.InferenceRuntime` (same dispatch policies,
  fault model, and telemetry) when per-request fidelity matters.

The latency model mirrors the paper's Sec. 4.1 rule: batches form every
``T/2`` and must execute inside the remaining ``T/2``, so a window meets
the SLO exactly when per-replica demand stays under the chosen profile's
calibrated throughput; demand beyond the *cheapest* profile's capacity
is dropped (and counted against SLO attainment).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..errors import ServingError
from ..runtime.pool import DISPATCH_POLICIES, ReplicaPool
from .node import NODE_BOOTING, NODE_DRAINING, CostTable, Node, ProfileCost

_EPS = 1e-9


@dataclass
class WindowRecord:
    """What one simulated window looked like, fleet-wide."""

    index: int
    start: float
    demand_qps: float
    profile: str | None            # chosen profile label (None = no demand)
    accuracy: float                # of the chosen profile (0 if none)
    utilization: float             # demand / capacity at chosen profile
    served_qps: float
    dropped_qps: float
    nodes_active: int
    nodes_booting: int
    nodes_draining: int
    violated: bool                 # some requests missed the SLO (dropped)
    node_utilization: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "demand_qps": self.demand_qps,
            "profile": self.profile,
            "accuracy": self.accuracy,
            "utilization": self.utilization,
            "served_qps": self.served_qps,
            "dropped_qps": self.dropped_qps,
            "nodes_active": self.nodes_active,
            "nodes_booting": self.nodes_booting,
            "nodes_draining": self.nodes_draining,
            "violated": self.violated,
        }


class Fleet:
    """An elastic set of nodes sharing one profile table."""

    def __init__(self, nodes, table: CostTable, spec=None,
                 latency_profile=None, replicas_per_node: int | None = None,
                 dispatch: str = "least-loaded", seed: int = 0):
        if dispatch not in DISPATCH_POLICIES:
            raise ServingError(
                f"unknown dispatch {dispatch!r}; choose from "
                f"{DISPATCH_POLICIES}")
        self.nodes: list[Node] = list(nodes)
        self.table = table
        self.spec = spec
        self.latency_profile = latency_profile
        self.replicas_per_node = replicas_per_node
        self.dispatch = dispatch
        self.seed = seed
        self._provisioned = len(self.nodes)

    # -- views ----------------------------------------------------------
    def serving_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.serving]

    def alive_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.alive]

    def count(self, state: str) -> int:
        return sum(1 for n in self.nodes if n.state == state)

    def capacity_qps(self, cost: ProfileCost) -> float:
        """Aggregate throughput of serving nodes at ``cost``'s profile."""
        return sum(n.capacity_qps(cost) for n in self.serving_nodes())

    def runtime_pool(self) -> ReplicaPool:
        """Every serving replica as one runtime dispatch pool.

        The returned pool is the bridge to the event-driven runtime:
        hand it to :class:`~repro.runtime.InferenceRuntime` together
        with ``table.controller(slo)`` and the fleet serves individual
        requests under the same dispatch policies the window model
        abstracts.
        """
        replicas = [r for node in self.serving_nodes() for r in node.pool]
        if not replicas:
            raise ServingError("no serving nodes in the fleet")
        return ReplicaPool(replicas, dispatch=self.dispatch, seed=self.seed)

    # -- elasticity -----------------------------------------------------
    def provision(self, count: int, ready_at: int) -> list[Node]:
        """Order ``count`` new nodes that boot at window ``ready_at``."""
        if self.spec is None or self.latency_profile is None \
                or self.replicas_per_node is None:
            raise ServingError(
                "fleet cannot provision without spec, latency_profile "
                "and replicas_per_node")
        added = []
        for _ in range(int(count)):
            node = Node(f"n{self._provisioned}", self.spec,
                        self.latency_profile, self.replicas_per_node,
                        state=NODE_BOOTING, ready_at=ready_at,
                        seed=self.seed)
            self._provisioned += 1
            self.nodes.append(node)
            added.append(node)
        return added

    def drain_nodes(self, count: int) -> list[Node]:
        """Drain the ``count`` youngest active nodes (LIFO, deterministic)."""
        drained = []
        for node in reversed(self.serving_nodes()):
            if len(drained) == count:
                break
            node.drain()
            drained.append(node)
        return drained

    def tick(self, window_index: int) -> None:
        """Advance lifecycles: previous window's work completes, booted
        nodes enter rotation, idle drained nodes retire."""
        for node in self.nodes:
            if node.alive and node.in_flight:
                node.complete()
            if node.state == NODE_BOOTING and window_index >= node.ready_at:
                node.boot()
            if node.state == NODE_DRAINING and node.in_flight == 0:
                node.retire()

    # -- the window-level serving model ---------------------------------
    def choose_profile(self, demand_qps: float) -> ProfileCost | None:
        """Most accurate profile whose fleet capacity covers the demand.

        The :class:`~repro.serving.ProfileTableController` rule lifted
        from per-batch cost to fleet throughput: walk the cost-ordered
        table keeping the most expensive candidate that still fits;
        fall back to the cheapest (degraded, possibly overloaded) when
        nothing fits.
        """
        if demand_qps <= 0:
            return None
        chosen = None
        for entry in self.table:
            if demand_qps <= self.capacity_qps(entry) + _EPS:
                chosen = entry
        return chosen if chosen is not None else self.table.cheapest

    def split(self, demand_qps: float, cost: ProfileCost
              ) -> dict[str, float]:
        """Waterfill demand over serving nodes, least-loaded first.

        Each node takes traffic up to its capacity at the chosen
        profile; iteration order is by current in-flight load then node
        id, mirroring the replica pool's least-loaded scoring at node
        granularity.
        """
        nodes = sorted(self.serving_nodes(),
                       key=lambda n: (n.in_flight, n.node_id))
        total = self.capacity_qps(cost)
        shares: dict[str, float] = {}
        remaining = demand_qps
        if total <= 0:
            return shares
        for node in nodes:
            cap = node.capacity_qps(cost)
            take = min(remaining, cap)
            if take > 0:
                shares[node.node_id] = take
                remaining -= take
        return shares

    def serve_window(self, index: int, start: float, window_seconds: float,
                     demand_qps: float) -> WindowRecord:
        """Serve one window of fluid demand; returns its record."""
        active = self.count("active")
        record = WindowRecord(
            index=index, start=start, demand_qps=demand_qps,
            profile=None, accuracy=0.0, utilization=0.0,
            served_qps=0.0, dropped_qps=0.0,
            nodes_active=active,
            nodes_booting=self.count(NODE_BOOTING),
            nodes_draining=self.count(NODE_DRAINING),
            violated=False)
        cost = self.choose_profile(demand_qps)
        if cost is None:
            return record
        capacity = self.capacity_qps(cost)
        served = min(demand_qps, capacity)
        record.profile = cost.label()
        record.accuracy = cost.accuracy
        record.utilization = demand_qps / capacity if capacity > 0 \
            else float("inf")
        record.served_qps = served
        record.dropped_qps = demand_qps - served
        record.violated = record.dropped_qps > _EPS
        for node_id, share in self.split(served, cost).items():
            node = next(n for n in self.nodes if n.node_id == node_id)
            node.assign(round(share * window_seconds))
            record.node_utilization[node_id] = \
                share / max(node.capacity_qps(cost), _EPS)
        if obs.enabled():
            for state in ("active", "booting", "draining"):
                obs.gauge("cluster_nodes", self.count(state), state=state)
            for node_id, value in record.node_utilization.items():
                obs.gauge("cluster_node_utilization", value, node=node_id)
            obs.count("cluster_windows_total",
                      profile=record.profile or "none")
            served_count = round(served * window_seconds)
            demand_count = round(demand_qps * window_seconds)
            obs.count("cluster_requests_total", amount=served_count,
                      result="served")
            if demand_count > served_count:
                obs.count("cluster_requests_total",
                          amount=demand_count - served_count,
                          result="dropped")
            if record.violated:
                obs.count("cluster_slo_violations_total")
        return record
