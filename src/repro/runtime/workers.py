"""True-parallel serving: a replica pool backed by worker processes.

:class:`ProcessReplicaPool` has the same interface as
:class:`~repro.runtime.pool.ReplicaPool`, but every replica is a
*process*: workers attach the parent's
:class:`~repro.tensor.shared.SharedArena` at boot (zero-copy — the
prefix-nesting property means one widest-rate arena serves every slice
profile read-only), compile inference plans locally from the shared
prefix weights, and answer batches over a pickle-light
request/response pipe.  The GIL stops mattering: aggregate
requests/sec scales with cores, which is what
``benchmarks/test_serving_throughput.py`` measures.

Every worker runs one BLAS thread, so the pool's parallelism is its
worker count: with OpenBLAS's default pool of one thread per core in
each worker, two workers on two cores would run four spin-waiting BLAS
threads.  The parent pins itself to one thread only while it forks and
then restores its own count (:mod:`repro.utils.blas`); spawned workers
pin themselves at boot.  In-process serving and training keep the
default threading.

Staleness rides the arena's version block.  After the parent mutates
weights (``load_state_dict``, ``Parameter.mutate()``, an optimizer
step), the next dispatch :meth:`~ProcessReplicaPool.sync`-s: the arena
publishes the new per-parameter version counters, every worker adopts
them on its next request via :meth:`~repro.tensor.shared.SharedArena.refresh`,
and the worker's local :class:`~repro.slicing.plans.PlanCache` staleness
check fires exactly as it would in-process — stale plans recompile
before the next reply and ``plan_cache_invalidations_total`` accounts
for it per worker.

Determinism: each worker boots with the parent's seed (offset by its
index), the ``REPRO_*`` environment knobs, and the parent's obs
enable/disable state; when the parent traces to ``run.jsonl``, worker
``i`` traces to ``run.jsonl.wi.jsonl`` and ``repro obs summarize``
merges them.  A 1-worker pool is prediction-bitwise-identical to the
in-process pool.

Cascades stay within one worker: :meth:`ProcessReplicaPool.warm_cascade`
ships the stage list to every worker, which builds a local
:class:`~repro.runtime.cascade.CascadeExecutor` and warms that
executor's own plan cache (the one its batches read), so escalation
never crosses the process boundary.  The ``stats`` reply carries that
cache's counters as ``cascade_cache``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..errors import ServingError
from ..slicing.plans import PlanCache
from ..slicing.profile import as_profile
from ..tensor.shared import SharedArena, _disinherit
from ..utils.blas import blas_threads, pin_single_thread, single_thread_forks
from .pool import ReplicaPool
from .replica import STATE_CRASHED, LatencyProfile, Replica

__all__ = ["WorkerBoot", "WorkerReplica", "ProcessReplicaPool",
           "build_pool", "POOL_BACKENDS"]

POOL_BACKENDS = ("thread", "process")

#: Environment variable overriding the multiprocessing start method
#: ("fork" where available, else "spawn").
START_METHOD_ENV = "REPRO_WORKER_START"


@dataclass
class WorkerBoot:
    """Everything a worker process needs to come up deterministic."""

    index: int
    manifest: object                  # SharedArena manifest
    seed: int
    env: dict = field(default_factory=dict)       # REPRO_* knobs
    obs_enabled: bool = False
    trace_path: str | None = None
    tick_clock: bool = False
    plan_capacity: int = 32
    model: object | None = None       # fork: inherited by reference
    model_factory: Callable | None = None         # spawn: rebuilt locally


def _worker_main(boot: WorkerBoot, conn) -> None:
    """Request loop of one worker process.

    Ops (all ``(op, payload)`` tuples, replies ``("ok", value)`` or
    ``("err", message)``): ``predict``, ``warm``, ``cascade``,
    ``set_cascade``, ``stats``, ``ping``, ``shutdown``.  Errors answer
    the request instead of killing the worker.
    """
    pin_single_thread()   # spawn: fresh OpenBLAS; fork: already 1
    _disinherit()   # a forked child must not touch the parent's arenas
    os.environ.update(boot.env)
    np.random.seed((boot.seed + boot.index) % (2 ** 32))
    # Replace any fork-inherited obs state with this worker's own sink
    # before anything can record; the parent flushed its trace pre-fork.
    if boot.obs_enabled:
        clock = obs.TickClock() if boot.tick_clock else None
        obs.configure(trace_path=boot.trace_path, clock=clock)
    else:
        obs.disable()
    model = boot.model if boot.model is not None else boot.model_factory()
    model.eval()
    arena = SharedArena.attach(boot.manifest)
    arena.adopt(model)
    label = f"w{boot.index}"
    replica = Replica(label, LatencyProfile(1.0), model=model,
                      plan_cache=PlanCache(boot.plan_capacity))
    executor = None
    served = 0
    running = True
    while running:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if op == "predict":
                inputs, rate = payload
                refreshed = arena.refresh(model)
                if refreshed and obs.enabled():
                    obs.count("worker_refreshes_total", amount=refreshed,
                              worker=label)
                reply = ("ok", replica.predict(inputs, rate))
                served += 1
                if obs.enabled():
                    obs.count("worker_requests_total", worker=label,
                              op="predict")
            elif op == "cascade":
                if executor is None:
                    raise ServingError(
                        "worker has no cascade; call warm_cascade first")
                refreshed = arena.refresh(model)
                if refreshed and obs.enabled():
                    obs.count("worker_refreshes_total", amount=refreshed,
                              worker=label)
                reply = ("ok", executor.run_batch(payload))
                served += 1
                if obs.enabled():
                    obs.count("worker_requests_total", worker=label,
                              op="cascade")
            elif op == "warm":
                arena.refresh(model)
                reply = ("ok", replica.warm_plans(payload))
            elif op == "set_cascade":
                from .cascade import CascadeExecutor
                stages, exact, incremental = payload
                arena.refresh(model)
                executor = CascadeExecutor(model, stages, exact=exact,
                                           incremental=incremental)
                reply = ("ok", executor.warm())
            elif op == "stats":
                reply = ("ok", {
                    "worker": label,
                    "pid": os.getpid(),
                    "seed": boot.seed + boot.index,
                    "requests": served,
                    "env": {key: value for key, value in os.environ.items()
                            if key.startswith("REPRO_")},
                    "obs_enabled": obs.enabled(),
                    "trace_path": boot.trace_path,
                    "plan_cache": replica.plan_cache.stats(),
                    "cascade_cache": None if executor is None
                    else executor.plans.stats(),
                    "blas_threads": blas_threads(),
                })
            elif op == "ping":
                reply = ("ok", label)
            elif op == "shutdown":
                reply = ("ok", served)
                running = False
            else:
                raise ServingError(f"unknown worker op {op!r}")
        except Exception as exc:  # answer the request, don't die
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    if boot.obs_enabled:
        obs.shutdown()
    arena.close()
    conn.close()


class _WorkerHandle:
    """Parent-side endpoint of one worker: process + pipe + bookkeeping."""

    def __init__(self, index: int, process, conn, trace_path: str | None):
        self.index = index
        self.process = process
        self.conn = conn
        self.trace_path = trace_path
        self.pending = 0              # requests sent, replies not yet read

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, op: str, payload=None) -> None:
        try:
            self.conn.send((op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise ServingError(
                f"worker w{self.index} pipe is closed: {exc}") from exc
        self.pending += 1

    def recv(self):
        try:
            status, value = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.pending = 0
            raise ServingError(
                f"worker w{self.index} died mid-request") from exc
        self.pending -= 1
        if status == "err":
            raise ServingError(f"worker w{self.index}: {value}")
        return value

    def request(self, op: str, payload=None):
        self.send(op, payload)
        return self.recv()


class WorkerReplica(Replica):
    """A pool replica whose model lives in a worker process.

    Keeps the full :class:`~repro.runtime.replica.Replica` surface —
    calibrated service times, fault state, dispatch tokens — but routes
    real execution (:meth:`predict`, :meth:`warm_plans`,
    :meth:`run_cascade`) over the worker pipe.
    """

    def __init__(self, handle: _WorkerHandle, profile: LatencyProfile,
                 pool: "ProcessReplicaPool", replica_id: str | None = None):
        super().__init__(replica_id or f"w{handle.index}", profile,
                         model=None)
        self._handle = handle
        self._pool = pool

    @property
    def crashed(self) -> bool:
        return self.state == STATE_CRASHED or not self._handle.alive

    @property
    def pid(self) -> int:
        return self._handle.process.pid

    def _timed(self, op: str, payload):
        start = time.perf_counter()
        value = self._handle.request(op, payload)
        if obs.enabled():
            obs.observe("worker_ipc_seconds",
                        time.perf_counter() - start, op=op)
        return value

    def warm_plans(self, rates) -> int:
        self._pool.sync()
        profiles = [as_profile(rate) for rate in rates]
        return int(self._timed("warm", profiles))

    def predict(self, inputs: np.ndarray, rate) -> np.ndarray:
        self._pool.sync()
        return self._timed("predict", (np.asarray(inputs), as_profile(rate)))

    def run_cascade(self, inputs: np.ndarray):
        """Cascade a batch inside the worker (escalations stay local)."""
        self._pool.sync()
        rows = np.ascontiguousarray(inputs, dtype=np.float32)
        return self._timed("cascade", rows)

    def stats(self) -> dict:
        return self._handle.request("stats")


class ProcessReplicaPool(ReplicaPool):
    """A :class:`ReplicaPool` whose replicas are worker processes.

    Parameters
    ----------
    model:
        The served model.  Its parameters are moved into a
        :class:`~repro.tensor.shared.SharedArena` (``model.share_memory()``)
        that every worker maps zero-copy; the parent keeps writable
        views so training/``load_state_dict`` continue to work.
    workers:
        Number of worker processes.
    latency_profile:
        Calibration for the simulated-time engine (defaults to 1 ms
        per full-width sample, like the CLI demo).
    model_factory:
        Zero-argument callable rebuilding the architecture; required
        under the ``spawn`` start method, where workers cannot inherit
        the parent's model object.  Weights need not match — workers
        adopt the arena's.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``; the
        ``REPRO_WORKER_START`` environment variable overrides.
    arena:
        Pass a pre-built arena to share one segment between pools; the
        caller then owns its lifecycle (:meth:`shutdown` only releases
        arenas the pool created).
    """

    backend = "process"

    def __init__(self, model, workers: int,
                 latency_profile: LatencyProfile | None = None,
                 dispatch: str = "least-loaded", seed: int = 0,
                 arena: SharedArena | None = None,
                 model_factory: Callable | None = None,
                 start_method: str | None = None,
                 plan_cache_capacity: int = 32,
                 name_prefix: str = "",
                 trace_paths: Sequence[str] | None = None):
        if workers < 1:
            raise ServingError("pool needs at least one worker")
        if trace_paths is not None and len(trace_paths) != workers:
            raise ServingError(
                f"{len(trace_paths)} trace paths for {workers} workers")
        method = (start_method or os.environ.get(START_METHOD_ENV)
                  or ("fork" if "fork" in mp.get_all_start_methods()
                      else "spawn"))
        if method != "fork" and model_factory is None:
            raise ServingError(
                f"start method {method!r} cannot inherit the model; "
                f"pass model_factory to rebuild it in the workers")
        ctx = mp.get_context(method)

        self.model = model
        self._owns_arena = arena is None
        self.arena = SharedArena.create(model) if arena is None else arena
        self.arena.bind(model)
        self._published = model.parameter_version()
        self._closed = False
        self._handles: list[_WorkerHandle] = []

        profile = latency_profile or LatencyProfile(1e-3)

        env = {key: value for key, value in os.environ.items()
               if key.startswith("REPRO_")}
        obs_on = obs.enabled()
        tick = obs_on and isinstance(obs.tracer().clock, obs.TickClock)
        base_trace = obs.tracer().path if obs_on else None
        if obs_on:
            # Children must not inherit buffered, unwritten trace bytes.
            obs.tracer().flush()

        replicas = []
        # Forked workers inherit one BLAS thread: their parallelism is
        # the worker count (spawned ones pin themselves at boot).
        forks = single_thread_forks() if method == "fork" else nullcontext()
        try:
            with forks:
                for index in range(workers):
                    if trace_paths is not None:
                        wpath = trace_paths[index]
                    elif base_trace:
                        wpath = f"{base_trace}.w{index}.jsonl"
                    else:
                        wpath = None
                    boot = WorkerBoot(
                        index=index, manifest=self.arena.manifest,
                        seed=seed, env=env, obs_enabled=obs_on,
                        trace_path=wpath, tick_clock=tick,
                        plan_capacity=plan_cache_capacity,
                        model=model if method == "fork" else None,
                        model_factory=(None if method == "fork"
                                       else model_factory))
                    parent_conn, child_conn = ctx.Pipe(duplex=True)
                    process = ctx.Process(target=_worker_main,
                                          args=(boot, child_conn),
                                          name=f"repro-worker-{index}",
                                          daemon=True)
                    process.start()
                    child_conn.close()
                    handle = _WorkerHandle(index, process, parent_conn, wpath)
                    self._handles.append(handle)
                    replicas.append(WorkerReplica(
                        handle, profile, self,
                        replica_id=f"{name_prefix}w{index}"))
            super().__init__(replicas, dispatch=dispatch, seed=seed)
        except Exception:
            self.shutdown()
            raise

    # -- weight publication ---------------------------------------------
    def sync(self) -> bool:
        """Publish parent weight mutations to the arena, if any.

        Cheap no-op (one int compare) when nothing changed; called
        automatically before every proxied request.  Returns whether a
        publication happened.
        """
        version = self.model.parameter_version()
        if version == self._published:
            return False
        self.arena.publish(self.model)
        self._published = self.model.parameter_version()
        return True

    # -- pool interface --------------------------------------------------
    def warm_plans(self, rates) -> int:
        self.sync()
        return super().warm_plans(rates)

    def warm_cascade(self, executor) -> int:
        """Ship the cascade to every worker and warm its stage plans.

        Each worker builds a local
        :class:`~repro.runtime.cascade.CascadeExecutor` over its
        arena-backed model and warms that executor's plan cache, so
        stage escalation never crosses the process boundary.  Returns
        the plans warmed across the pool.
        """
        self.sync()
        payload = (list(executor.stages), executor.exact,
                   executor.incremental)
        return sum(int(handle.request("set_cascade", payload))
                   for handle in self._live())

    def worker_stats(self) -> list[dict]:
        """Boot/served/plan-cache report from every live worker."""
        return [handle.request("stats") for handle in self._live()]

    def trace_paths(self) -> list[str]:
        """Per-worker JSONL trace files (for ``repro obs summarize``)."""
        return [h.trace_path for h in self._handles if h.trace_path]

    def _live(self) -> list[_WorkerHandle]:
        handles = [h for h in self._handles if h.alive]
        if not handles:
            raise ServingError("no live workers in the pool")
        return handles

    # -- throughput path -------------------------------------------------
    def predict_many(self, batches: Sequence[np.ndarray], rate,
                     window: int = 4) -> list[np.ndarray]:
        """Pipeline many batches across the workers; ordered results.

        Round-robins batches over live workers, keeping up to
        ``window`` requests in flight per worker so every process stays
        busy — the wall-clock throughput path the serving benchmark
        measures.
        """
        self.sync()
        profile = as_profile(rate)
        live = self._live()
        results: list = [None] * len(batches)
        queued: dict[int, list[int]] = {h.index: [] for h in live}
        for position, batch in enumerate(batches):
            handle = live[position % len(live)]
            if handle.pending >= window:
                results[queued[handle.index].pop(0)] = handle.recv()
            handle.send("predict", (np.asarray(batch), profile))
            queued[handle.index].append(position)
        for handle in live:
            while queued[handle.index]:
                results[queued[handle.index].pop(0)] = handle.recv()
        return results

    # -- lifecycle --------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers and release the arena.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if handle.alive:
                try:
                    while handle.pending:
                        handle.recv()
                    handle.request("shutdown")
                except ServingError:
                    pass
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in self._handles:
            handle.process.join(timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout)
        if self._owns_arena:
            self.arena.release()

    def __enter__(self) -> "ProcessReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def build_pool(model, replicas: int, latency_profile: LatencyProfile,
               backend: str = "thread", dispatch: str = "least-loaded",
               seed: int = 0, name_prefix: str = "",
               **process_kwargs) -> ReplicaPool:
    """Build a serving pool over ``model``: in-process or multi-process.

    ``backend="thread"`` returns the classic in-process
    :class:`ReplicaPool` (every replica shares the model object;
    simulated-time only, GIL-bound).  ``backend="process"`` returns a
    :class:`ProcessReplicaPool` (shared-memory arena + worker
    processes; true parallelism).  Replica ids are ``w0..wN-1`` either
    way, so telemetry is backend-comparable.
    """
    if backend not in POOL_BACKENDS:
        raise ServingError(
            f"unknown pool backend {backend!r}; choose from {POOL_BACKENDS}")
    if backend == "process":
        return ProcessReplicaPool(model, replicas, latency_profile,
                                  dispatch=dispatch, seed=seed,
                                  name_prefix=name_prefix, **process_kwargs)
    if process_kwargs:
        raise ServingError(
            f"{sorted(process_kwargs)} only apply to the process backend")
    return ReplicaPool(
        [Replica(f"{name_prefix}w{index}", latency_profile, model=model)
         for index in range(replicas)],
        dispatch=dispatch, seed=seed)
