"""Unified observability: one metrics registry + one trace, per process.

The library's hot paths — the Algorithm-1 trainer, the continuous-time
runtime, the serving controllers, the experiment cache — are
instrumented against the module-level helpers here (:func:`count`,
:func:`gauge`, :func:`observe`, :func:`span`, :func:`span_at`,
:func:`event`).  Observability is **disabled by default**: every helper
first checks one module-global flag and returns immediately, so the
instrumented code paths are numerically and behaviourally identical with
telemetry off, at near-zero overhead.

Typical use::

    from repro import obs

    registry, tracer = obs.configure(trace_path="run.jsonl",
                                     clock=obs.TickClock())
    ...   # train / serve; spans, events and metrics accumulate
    obs.shutdown()            # append the metrics snapshot, close the sink

    print(registry.to_prometheus())          # scrape-ready text format

Determinism: the tracer's clock is injectable (``WallClock`` by default,
``ManualClock``/``TickClock`` for reproducible runs), and the runtime
engine stamps its records with *simulated* timestamps, so a seeded
simulated-time run writes a byte-identical JSONL trace every time.

The metric catalog (names, kinds and help strings) lives in
``_CATALOG`` below and is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .clock import ManualClock, TickClock, WallClock
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles_from_buckets,
)
from .trace import Tracer, dumps_record

__all__ = [
    "ManualClock",
    "TickClock",
    "WallClock",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentiles_from_buckets",
    "Tracer",
    "dumps_record",
    "enabled",
    "disabled",
    "configure",
    "disable",
    "shutdown",
    "registry",
    "tracer",
    "clock_now",
    "span",
    "span_at",
    "event",
    "count",
    "gauge",
    "observe",
]

# Help text per metric name, attached when a helper first creates the
# metric and exported in the Prometheus HELP lines.  Keep in sync with
# docs/observability.md.
_CATALOG = {
    # -- training (repro.slicing.trainer) --
    "train_steps_total": "Optimizer updates (Algorithm-1 batches).",
    "train_rate_scheduled_total":
        "Forward/backward passes per scheduled slice rate.",
    "train_loss": "Last observed training loss per slice rate.",
    "train_grad_norm":
        "Global gradient norm of the last accumulated update.",
    "train_step_seconds": "Wall (or injected-clock) time per train step.",
    # -- training fast path (repro.tensor.workspace / fused) --
    "train_fast_steps_total":
        "Train steps that ran under a pooled workspace arena.",
    "train_ws_pool_hits_total":
        "Workspace buffer requests served from the pool, by scope.",
    "train_ws_pool_misses_total":
        "Workspace buffer requests that allocated, by scope.",
    "train_ws_col_reuses_total":
        "Forward passes that reused the pinned input's im2col columns.",
    "train_ws_bytes": "Bytes resident in the workspace arena's pools.",
    "train_layer_seconds":
        "Kernel time under a workspace arena by layer type and phase.",
    # -- runtime (repro.runtime) --
    "runtime_queue_depth": "Requests waiting in the admission queue.",
    "runtime_queue_backpressure": "Queue fullness in [0, 1].",
    "runtime_requests_total": "Finalized requests per terminal outcome.",
    "runtime_retries_total": "Failed-batch requests re-admitted for retry.",
    "runtime_batches_total": "Batches formed per chosen slice rate.",
    "runtime_batch_size": "Requests per formed batch.",
    "runtime_batch_occupancy":
        "Share of max_batch_size used by the last batch.",
    "runtime_dispatches_total": "Batches dispatched per replica.",
    "runtime_service_seconds":
        "Simulated service time per dispatched batch, by result cause.",
    "runtime_faults_total": "Injected fault events per kind.",
    "runtime_quarantines_total": "Replicas taken out of rotation.",
    "runtime_health_detections_total":
        "Crashed replicas detected by the periodic health check.",
    "runtime_replicas_in_rotation": "Replicas believed healthy.",
    # -- process workers (repro.runtime.workers) --
    "worker_requests_total":
        "Requests served by each worker process, per op.",
    "worker_ipc_seconds":
        "Parent-side round-trip time of worker pipe requests, per op.",
    "worker_refreshes_total":
        "Shared-arena version counters adopted by worker processes "
        "(each adoption invalidates that worker's stale plans).",
    # -- serving controllers (repro.serving.controller) --
    "controller_decisions_total":
        "Slice-rate decisions per chosen rate ('none' = infeasible).",
    "controller_latency_estimate":
        "Adaptive controller's full-width per-sample latency estimate.",
    # -- experiment cache (repro.experiments.cache) --
    "expcache_hits_total": "Experiment-cache lookups served from disk.",
    "expcache_misses_total": "Experiment-cache lookups that missed.",
    # -- inference plans (repro.slicing.plans) --
    "plan_cache_hits_total": "Plan-cache lookups served without recompiling.",
    "plan_cache_misses_total": "Plan-cache lookups that compiled a new plan.",
    "plan_cache_invalidations_total":
        "Cached plans dropped because model parameters changed.",
    "plan_cache_evictions_total": "Plans evicted by the cache's LRU policy.",
    "plan_cache_size": "Plans currently resident in the cache.",
    "plan_compiles_total": "Plan compilations per model class.",
    # -- cluster fleet (repro.cluster) --
    "cluster_nodes": "Fleet nodes per lifecycle state.",
    "cluster_node_utilization":
        "Per-node utilization at the window's chosen profile.",
    "cluster_windows_total": "Simulated windows per chosen slice profile.",
    "cluster_requests_total":
        "Windowed requests per result (served within SLO vs dropped).",
    "cluster_slo_violations_total":
        "Windows where demand exceeded the cheapest profile's capacity.",
    "cluster_autoscale_events_total":
        "Autoscaler actions per kind (scale-up vs drain).",
    # -- slice-quality diagnostics (repro.diagnose) --
    "diagnose_examples_total":
        "Examples evaluated by the diagnostic sweep, per profile.",
    "diagnose_errors_total":
        "Misclassified examples in the diagnostic sweep, per profile.",
    "diagnose_error_slices":
        "Embedding-space error slices found by the last diagnosis.",
    "diagnose_worst_slice_accuracy":
        "Accuracy of each profile's worst discovered data slice.",
    "diagnose_layer_divergence":
        "Activation divergence (1 - cosine) vs the full net, per "
        "slice point, at the diagnosed reference profile.",
    # -- per-slice serving telemetry (repro.runtime.engine) --
    "runtime_slice_requests_total":
        "Finalized requests per data-slice label and terminal outcome "
        "(only when the runtime is given slice labels).",
}

# Non-default histogram buckets per metric name.
_BUCKETS: dict[str, Sequence[float]] = {
    "runtime_batch_size": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
}

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()


# -- lifecycle ----------------------------------------------------------
def enabled() -> bool:
    """Whether telemetry is being recorded."""
    return _enabled


def disabled() -> bool:
    """The no-op fast path: True unless :func:`configure` has run."""
    return not _enabled


def configure(trace_path: str | None = None,
              clock: Callable[[], float] | None = None
              ) -> tuple[MetricsRegistry, Tracer]:
    """Enable observability with a fresh registry and tracer.

    ``trace_path`` directs span/event records to a JSONL file (in-memory
    otherwise); ``clock`` injects the tracer's time source (wall clock by
    default — pass :class:`ManualClock`/:class:`TickClock` for
    deterministic traces).
    """
    global _enabled, _registry, _tracer
    _registry = MetricsRegistry()
    _tracer = Tracer(trace_path, clock)
    _enabled = True
    return _registry, _tracer


def disable() -> None:
    """Stop recording; the current registry/tracer stay readable."""
    global _enabled
    _enabled = False


def shutdown(write_metrics: bool = True) -> None:
    """Snapshot the metrics into the trace, close the sink, disable."""
    global _enabled
    if _enabled and write_metrics and len(_registry):
        _tracer.write_metrics(_registry)
    _tracer.close()
    _enabled = False


def registry() -> MetricsRegistry:
    """The active (most recently configured) metrics registry."""
    return _registry


def tracer() -> Tracer:
    """The active (most recently configured) tracer."""
    return _tracer


def clock_now() -> float:
    """One reading of the tracer's clock."""
    return _tracer.clock()


# -- instrumentation helpers (no-ops while disabled) ---------------------
class _NullSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """A clock-timed span context manager (no-op while disabled)."""
    if not _enabled:
        return _NULL_SPAN
    return _tracer.span(name, **attrs)


def span_at(name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> int | None:
    """Record an explicit-timestamp span; returns its id (None if off)."""
    if not _enabled:
        return None
    return _tracer.span_at(name, start, end, parent=parent, **attrs)


def event(name: str, at: float | None = None,
          parent: int | None = None, **attrs) -> int | None:
    """Record a point event; returns its id (None while disabled)."""
    if not _enabled:
        return None
    return _tracer.event(name, at=at, parent=parent, **attrs)


def count(name: str, amount: float = 1.0, **labels) -> None:
    """Increment the counter ``name`` (auto-created from the catalog)."""
    if not _enabled:
        return
    _registry.counter(name, _CATALOG.get(name, "")).inc(amount, **labels)


def gauge(name: str, value: float, **labels) -> None:
    """Set the gauge ``name`` to ``value``."""
    if not _enabled:
        return
    _registry.gauge(name, _CATALOG.get(name, "")).set(value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record ``value`` into the histogram ``name``."""
    if not _enabled:
        return
    _registry.histogram(name, _CATALOG.get(name, ""),
                        buckets=_BUCKETS.get(name)).observe(value, **labels)
