"""True-parallel serving: a replica pool backed by worker processes.

:class:`ProcessReplicaPool` has the same interface as
:class:`~repro.runtime.pool.ReplicaPool`, but every replica is a
*process*: workers attach the parent's
:class:`~repro.tensor.shared.SharedArena` at boot (zero-copy — the
prefix-nesting property means one widest-rate arena serves every slice
profile read-only), compile inference plans locally from the shared
prefix weights, and answer batches over a framed pipe.  The GIL stops
mattering: aggregate requests/sec scales with cores, which is what
``benchmarks/test_serving_throughput.py`` measures.

Wire format.  Every message each way is one raw frame, sent with
``Connection.send_bytes``::

    op:u8  ndim:u8  pad:2  tag:u32  dtype:8s  shape:ndim x i64  body

A frame whose ``dtype`` field holds a numpy ``dtype.str`` (``<f4``,
``|b1``, ...) carries one C-ordered array as its body, decoded without a
copy by ``np.frombuffer`` (so the worker's inputs are read-only views);
an empty ``dtype`` field means the body is a pickle.  The hot ops never
pickle: ``predict`` sends the input array with ``tag`` = an interned
profile id and gets the int predictions back, and ``cascade`` gets its
:class:`~repro.runtime.cascade.CascadeResult` back as one int64 vector
(:func:`pack_cascade`).  Profiles are interned per worker by
:meth:`~repro.slicing.profile.SliceProfile.fingerprint` — ``0.5``,
``UniformProfile(0.5)`` and an all-0.5 ``LayerProfile`` share one id —
and each is pickled once, inside the ``warm`` request that ships it with
its id and compiles its plan (``warm_plans``, or the first request at a
new profile).  Control ops (``warm``, ``set_cascade``, ``stats``,
``ping``, ``shutdown``) and error replies carry pickled bodies in the
same frame, so the worker has one receive loop.  Replies are read
strictly in order; a handle with unread replies refuses new requests
rather than hand back a stale frame.

Every worker runs one BLAS thread, so the pool's parallelism is its
worker count: with OpenBLAS's default pool of one thread per core in
each worker, two workers on two cores would run four spin-waiting BLAS
threads.  The parent pins itself to one thread only while it forks and
then restores its own count (:mod:`repro.utils.blas`); spawned workers
pin themselves at boot.  In-process serving and training keep the
default threading.

Staleness rides the arena's version block.  After the parent mutates
weights (``load_state_dict``, ``Parameter.mutate()``, an optimizer
step), the process-wide mutation epoch moves and the next dispatch
:meth:`~ProcessReplicaPool.sync`-s: the arena publishes the new
per-parameter version counters and moves its generation counter, every
worker adopts them on its next request via
:meth:`~repro.tensor.shared.SharedArena.refresh`,
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

import functools
import multiprocessing as mp
import os
import pickle
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..errors import ServingError
from ..nn.module import mutation_epoch
from ..slicing.plans import PlanCache
from ..slicing.profile import SliceProfile, as_profile
from ..tensor.shared import SharedArena, _disinherit
from ..utils.blas import blas_threads, pin_single_thread, single_thread_forks
from .cascade import CascadeExecutor, CascadeResult
from .pool import ReplicaPool
from .replica import STATE_CRASHED, LatencyProfile, Replica

__all__ = ["WorkerBoot", "WorkerReplica", "ProcessReplicaPool"]

#: Environment variable overriding the multiprocessing start method
#: ("fork" where available, else "spawn").
START_METHOD_ENV = "REPRO_WORKER_START"

# Frame ops: requests, then the two reply kinds.
(OP_PREDICT, OP_CASCADE, OP_WARM, OP_SET_CASCADE, OP_STATS, OP_PING,
 OP_SHUTDOWN, OP_OK, OP_ERR) = range(9)

#: op, ndim, 2 pad bytes, tag (profile id), dtype.str; then ``ndim``
#: int64 dims.  16 + 8 * ndim bytes keeps the body 8-byte aligned.
_HEADER = struct.Struct("<BBxxI8s")
_DIMS = tuple(struct.Struct(f"<{n}q") for n in range(65))
_PICKLED = bytes(8)           # empty dtype field: the body is a pickle
_WIRE_KINDS = "biufc"         # bool, int, uint, float, complex


def pack_frame(op: int, array: np.ndarray | None = None, tag: int = 0,
               value=None) -> bytes:
    """One wire frame: ``array``'s raw bytes, else ``value`` pickled.

    Raises :class:`ServingError` for arrays whose dtype has no raw
    layout (object, structured, strings, datetimes).
    """
    if array is None:
        return _HEADER.pack(op, 0, tag, _PICKLED) + pickle.dumps(
            value, pickle.HIGHEST_PROTOCOL)
    dtype = array.dtype
    if dtype.kind not in _WIRE_KINDS:
        raise ServingError(f"cannot send a {dtype} array to a worker")
    shape = array.shape
    return b"".join((_HEADER.pack(op, len(shape), tag, dtype.str.encode()),
                     _DIMS[len(shape)].pack(*shape),
                     np.ascontiguousarray(array).data))


@functools.lru_cache(maxsize=64)
def _wire_dtype(code: bytes) -> np.dtype:
    return np.dtype(code.rstrip(b"\0").decode())


def unpack_frame(frame: bytes) -> tuple[int, int, object]:
    """``(op, tag, payload)`` of one frame.

    An array payload is a read-only ``np.frombuffer`` view of ``frame``.
    """
    op, ndim, tag, code = _HEADER.unpack_from(frame)
    start = _HEADER.size + 8 * ndim
    if code == _PICKLED:
        return op, tag, pickle.loads(memoryview(frame)[start:])
    shape = _DIMS[ndim].unpack_from(frame, _HEADER.size)
    array = np.frombuffer(frame, _wire_dtype(code), offset=start)
    return op, tag, array.reshape(shape)


def pack_cascade(result: CascadeResult) -> np.ndarray:
    """A :class:`CascadeResult` as one int64 vector.

    Layout: ``n, k, e`` (rows, stages run, escalations), stage_rows /
    stage_spent / stage_full (k each), the escalations as ``(from, to,
    rows)`` triples (3e), then predictions (n) and stages (n).
    """
    counts = [len(result.predictions), len(result.stage_rows),
              len(result.escalations), *result.stage_rows,
              *result.stage_spent, *result.stage_full]
    for triple in result.escalations:
        counts.extend(triple)
    return np.concatenate((counts, result.predictions, result.stages),
                          dtype=np.int64)


def unpack_cascade(vector: np.ndarray) -> CascadeResult:
    """Inverse of :func:`pack_cascade` (the arrays view ``vector``)."""
    n, k, e = vector[:3].tolist()
    cut = 3 + 3 * k + 3 * e
    counts = vector[3:cut].tolist()
    triples = counts[3 * k:]
    return CascadeResult(
        predictions=vector[cut:cut + n], stages=vector[cut + n:],
        stage_rows=counts[:k], stage_spent=counts[k:2 * k],
        stage_full=counts[2 * k:3 * k],
        escalations=list(zip(triples[::3], triples[1::3], triples[2::3])))


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
    model: object | None = None       # fork: inherited by reference
    model_factory: Callable | None = None         # spawn: rebuilt locally


def _worker_main(boot: WorkerBoot, conn) -> None:
    """Request loop of one worker process.

    Reads one frame per request (``OP_PREDICT``, ``OP_CASCADE``,
    ``OP_WARM``, ``OP_SET_CASCADE``, ``OP_STATS``, ``OP_PING``,
    ``OP_SHUTDOWN``) and answers each with one ``OP_OK`` or ``OP_ERR``
    frame.  ``OP_WARM`` carries ``(id, profile)`` pairs: it interns
    them and compiles their plans.  Errors answer the request instead
    of killing the worker.
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
                      plan_cache=PlanCache())
    profiles: dict[int, SliceProfile] = {}     # interned by the parent
    executor = None
    served = 0

    def refresh() -> None:
        refreshed = arena.refresh(model)
        if refreshed and obs.enabled():
            obs.count("worker_refreshes_total", amount=refreshed,
                      worker=label)

    def count(op: str) -> None:
        nonlocal served
        served += 1
        if obs.enabled():
            obs.count("worker_requests_total", worker=label, op=op)

    running = True
    while running:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            op, tag, payload = unpack_frame(frame)
            if op == OP_PREDICT:
                profile = profiles.get(tag)
                if profile is None:
                    raise ServingError(f"unknown profile id {tag}")
                refresh()
                reply = pack_frame(OP_OK, replica.predict(payload, profile))
                count("predict")
            elif op == OP_CASCADE:
                if executor is None:
                    raise ServingError(
                        "worker has no cascade; call warm_cascade first")
                refresh()
                reply = pack_frame(
                    OP_OK, pack_cascade(executor.run_batch(payload)))
                count("cascade")
            elif op == OP_WARM:
                profiles.update(payload)
                arena.refresh(model)
                reply = pack_frame(OP_OK, value=replica.warm_plans(
                    [profile for _, profile in payload]))
            elif op == OP_SET_CASCADE:
                stages, incremental = payload
                arena.refresh(model)
                executor = CascadeExecutor(model, stages, incremental=incremental)
                reply = pack_frame(OP_OK, value=executor.warm())
            elif op == OP_STATS:
                reply = pack_frame(OP_OK, value={
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
            elif op == OP_PING:
                reply = pack_frame(OP_OK, value=label)
            elif op == OP_SHUTDOWN:
                reply = pack_frame(OP_OK, value=served)
                running = False
            else:
                raise ServingError(f"unknown worker op {op!r}")
        except Exception as exc:  # answer the request, don't die
            reply = pack_frame(OP_ERR, value=f"{type(exc).__name__}: {exc}")
        try:
            conn.send_bytes(reply)
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
        self._profiles: dict[str, int] = {}   # fingerprint -> interned id

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, frame: bytes) -> None:
        try:
            self.conn.send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            raise ServingError(
                f"worker w{self.index} pipe is closed: {exc}") from exc
        self.pending += 1

    def recv(self):
        """Read the oldest outstanding reply (arrays come back writable)."""
        try:
            frame = self.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            self.pending = 0
            raise ServingError(
                f"worker w{self.index} died mid-request") from exc
        self.pending -= 1
        op, _, value = unpack_frame(frame)
        if op == OP_ERR:
            raise ServingError(f"worker w{self.index}: {value}")
        return value.copy() if isinstance(value, np.ndarray) else value

    def drain(self) -> None:
        """Read and drop every outstanding reply."""
        while self.pending:
            try:
                self.recv()
            except ServingError:
                pass

    def expect_idle(self) -> None:
        """Refuse to start a request while older replies are unread."""
        if self.pending:
            raise ServingError(
                f"worker w{self.index} has {self.pending} unread "
                f"replies; refusing a request that would read a stale one")

    def request(self, frame: bytes):
        self.expect_idle()
        self.send(frame)
        return self.recv()

    def call(self, op: int, value=None):
        """A control request: pickled ``value`` out, pickled reply back."""
        return self.request(pack_frame(op, value=value))

    def profile_id(self, profile: SliceProfile) -> int:
        """The worker's id for ``profile``, warming it on first use."""
        tag = self._profiles.get(profile.fingerprint())
        if tag is None:
            self.warm([profile])
            tag = self._profiles[profile.fingerprint()]
        return tag

    def warm(self, profiles: Sequence[SliceProfile]) -> int:
        """Intern ``profiles`` in the worker and compile their plans.

        New profiles take the next free ids, recorded once the worker
        has answered; returns the plans ensured.
        """
        fresh: dict[str, int] = {}
        tagged = []
        for profile in profiles:
            key = profile.fingerprint()
            tag = self._profiles.get(key)
            if tag is None:
                tag = fresh.setdefault(key, len(self._profiles) + len(fresh))
            tagged.append((tag, profile))
        warmed = self.call(OP_WARM, tagged)
        self._profiles.update(fresh)
        return int(warmed)


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

    @staticmethod
    def _observe(op: str, start: float) -> None:
        if obs.enabled():
            obs.observe("worker_ipc_seconds",
                        time.perf_counter() - start, op=op)

    def warm_plans(self, rates) -> int:
        self._pool.sync()
        start = time.perf_counter()
        warmed = self._handle.warm([as_profile(rate) for rate in rates])
        self._observe("warm", start)
        return warmed

    def predict(self, inputs: np.ndarray, rate) -> np.ndarray:
        self._pool.sync()
        start = time.perf_counter()
        handle = self._handle
        tag = handle.profile_id(as_profile(rate))
        predictions = handle.request(
            pack_frame(OP_PREDICT, np.asarray(inputs), tag))
        self._observe("predict", start)
        return predictions

    def run_cascade(self, inputs: np.ndarray) -> CascadeResult:
        """Cascade a batch inside the worker (escalations stay local)."""
        self._pool.sync()
        start = time.perf_counter()
        rows = np.asarray(inputs, dtype=np.float32)
        vector = self._handle.request(pack_frame(OP_CASCADE, rows))
        self._observe("cascade", start)
        return unpack_cascade(vector)

    def stats(self) -> dict:
        return self._handle.call(OP_STATS)


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

    def __init__(self, model, workers: int,
                 latency_profile: LatencyProfile | None = None,
                 dispatch: str = "least-loaded", seed: int = 0,
                 arena: SharedArena | None = None,
                 model_factory: Callable | None = None,
                 start_method: str | None = None,
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
        self._published = mutation_epoch()
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
                        replica_id=f"w{index}"))
            super().__init__(replicas, dispatch=dispatch, seed=seed)
        except Exception:
            self.shutdown()
            raise

    # -- weight publication ---------------------------------------------
    def sync(self) -> bool:
        """Publish parent weight mutations to the arena, if any.

        Called automatically before every proxied request.  While the
        process-wide :func:`~repro.nn.module.mutation_epoch` has not
        moved since the last publish, this is one int compare; after it
        moved, :meth:`SharedArena.publish` walks the model.  The epoch
        is read before the publish, so a write racing it is published
        by the next call.  Returns whether a publication happened.
        """
        epoch = mutation_epoch()
        if epoch == self._published:
            return False
        self.arena.publish(self.model)
        self._published = epoch
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
        payload = (list(executor.stages), executor.incremental)
        return sum(int(handle.call(OP_SET_CASCADE, payload))
                   for handle in self._live())

    def worker_stats(self) -> list[dict]:
        """Boot/served/plan-cache report from every live worker."""
        return [handle.call(OP_STATS) for handle in self._live()]

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
        measures.  If any batch fails, every outstanding reply is read
        and dropped before the error propagates, so the pipes stay in
        step for the next request.
        """
        self.sync()
        profile = as_profile(rate)
        live = self._live()
        tags = {}
        for handle in live:
            handle.expect_idle()
            tags[handle.index] = handle.profile_id(profile)
        results: list = [None] * len(batches)
        queued: dict[int, list[int]] = {h.index: [] for h in live}
        try:
            for position, batch in enumerate(batches):
                handle = live[position % len(live)]
                if handle.pending >= window:
                    results[queued[handle.index].pop(0)] = handle.recv()
                handle.send(pack_frame(OP_PREDICT, np.asarray(batch),
                                       tags[handle.index]))
                queued[handle.index].append(position)
            for handle in live:
                while queued[handle.index]:
                    results[queued[handle.index].pop(0)] = handle.recv()
        except BaseException:
            for handle in live:
                handle.drain()
            raise
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
                    handle.drain()
                    handle.call(OP_SHUTDOWN)
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

