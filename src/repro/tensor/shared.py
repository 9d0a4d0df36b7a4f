"""Shared-memory weight arenas for multi-process serving.

The prefix-nesting property (Eq. 2 of the paper) means the widest-rate
weights are the *only* weights: every slice profile reads a leading
block of the same arrays.  A :class:`SharedArena` therefore packs a
model's full-rate parameters (and batch-norm running stats) into one
``multiprocessing.shared_memory`` segment, and every worker process
maps that segment zero-copy — no per-worker weight copies, no pickling
of arrays on the request path.

Layout of the segment::

    [ generation : int64 ][ versions : int64[slots] ][ pad to 64 ]
    [ array 0 ][ pad ][ array 1 ] ...

The *versions block* carries the per-:class:`~repro.nn.module.Parameter`
monotone version counters across the process boundary: the parent
:meth:`~SharedArena.publish`-es its counters after mutating weights, and
workers :meth:`~SharedArena.refresh` before serving, adopting any new
counter via :meth:`Parameter.sync_version`.  The existing
:class:`~repro.slicing.plans.PlanCache` staleness check then fires in
the worker exactly as it would in-process, recompiling stale plans
before the next reply.  The *generation* counter in front of the block
moves once per publish that changed a slot (after the slots are
written), so a refresh compares that one integer and walks the slots
only when it moved.

Lifecycle safety: segments the current process created are tracked in a
registry and unlinked at interpreter exit (guarded by owner pid, so a
forked child never unlinks its parent's arena).  Attaching processes
deregister from the stdlib ``resource_tracker`` so a worker's exit
cannot reap a segment it does not own.  :func:`shm_segments` lists
live arena segments for leak checks.
"""

from __future__ import annotations

import atexit
import os
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterable

import numpy as np

from ..errors import ConfigError

__all__ = ["ArenaEntry", "ArenaManifest", "SharedArena",
           "ARENA_PREFIX", "shm_segments", "owned_segments"]

#: Prefix of every arena segment name under ``/dev/shm``.
ARENA_PREFIX = "repro_arena_"

#: Byte alignment of each packed array (cache-line friendly).
_ALIGN = 64

#: Width of one version-counter slot in bytes (int64); the generation
#: counter takes the first one.
_SLOT = 8

# Arenas created (not attached) by this process, keyed by segment name.
# The atexit hook unlinks whatever is still here — guarded by owner pid
# so a forked worker that inherits the registry leaves it alone.
_OWNED: dict[str, "SharedArena"] = {}

_KIND_PARAM = "param"
_KIND_EXTRA = "extra"


@dataclass(frozen=True)
class ArenaEntry:
    """Manifest row: where one named array lives inside the segment."""

    name: str            # dotted state_dict name
    kind: str            # "param" | "extra" (running stats)
    offset: int          # byte offset of the array data
    shape: tuple         # array shape
    dtype: str           # numpy dtype string
    slot: int            # index into the versions block


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a worker needs to map the segment: pickle-light."""

    segment: str                 # shared-memory segment name
    nbytes: int                  # total segment size
    slots: int                   # number of version counters
    entries: tuple               # tuple[ArenaEntry, ...]

    def entry(self, name: str) -> ArenaEntry:
        for item in self.entries:
            if item.name == name:
                return item
        raise ConfigError(f"arena has no entry named {name!r}")

    def names(self) -> list[str]:
        return [item.name for item in self.entries]


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_layout(arrays: Iterable[tuple[str, str, np.ndarray]]):
    """Assign offsets/slots; returns (entries, total_bytes)."""
    entries = []
    offset = 0
    slot = 0
    arrays = list(arrays)
    if not arrays:
        raise ConfigError("cannot build an arena for a model with no "
                          "parameters or running stats")
    # Generation counter and versions block first.
    offset = _aligned((1 + len(arrays)) * _SLOT)
    for name, kind, array in arrays:
        entries.append(ArenaEntry(
            name=name, kind=kind, offset=offset,
            shape=tuple(array.shape), dtype=str(array.dtype), slot=slot))
        offset += _aligned(max(array.nbytes, 1))
        slot += 1
    return tuple(entries), offset


def _model_arrays(model):
    """Yield ``(name, kind, array)`` in deterministic traversal order."""
    for name, param in model.named_parameters():
        yield name, _KIND_PARAM, param.data
    for prefix, module in model._named_stateful():
        for key, value in module.extra_state().items():
            yield prefix + key, _KIND_EXTRA, np.asarray(value)


def _untrack(shm) -> None:
    """Stop the resource tracker from reaping a segment we only attached.

    Python registers every ``SharedMemory`` with the tracker — plain
    attaches included — so an *unrelated* attaching process exiting
    would unlink the owner's live arena.  Processes spawned by the
    owner via ``multiprocessing`` share the owner's tracker (the
    duplicate registration is a set-add no-op there), so they must NOT
    unregister — that would strip the owner's own crash-safety entry.
    Hence ``SharedArena.attach(untrack=True)`` is opt-in.
    """
    try:  # pragma: no cover - platform dependent
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _defuse(shm) -> None:
    """Silence ``SharedMemory.__del__`` when live views pin the mapping.

    Parameters stay bound to arena views after a close (by design — the
    memory lives until the views die), which makes the stdlib's
    ``close`` raise ``BufferError`` forever after.  Shadow it with an
    instance-level no-op so garbage collection stays quiet.
    """
    try:
        shm.close = lambda: None
    except AttributeError:  # pragma: no cover - slotted in odd builds
        pass


class SharedArena:
    """One shared-memory segment holding a model's widest-rate weights.

    Create in the serving parent with :meth:`create` (then :meth:`bind`
    to move the model's parameters into the segment), and map in a
    worker with :meth:`attach` + :meth:`adopt`.  The arena is a context
    manager: ``with SharedArena.create(model) as arena: ...`` closes
    (and, for the owner, unlinks) the segment on exit.
    """

    def __init__(self, shm, manifest: ArenaManifest, owner: bool):
        self._shm = shm
        self.manifest = manifest
        self._owner = owner
        self._owner_pid = os.getpid() if owner else None
        self._closed = False
        self._unlinked = False
        self._generation = np.frombuffer(
            shm.buf, dtype=np.int64, count=1, offset=0)
        self._versions = np.frombuffer(
            shm.buf, dtype=np.int64, count=manifest.slots, offset=_SLOT)
        # The generation the last adopt/refresh walked (None: never).
        self._seen_generation: int | None = None
        self._views: dict[str, np.ndarray] = {}
        # Parent-side bindings (filled by bind/adopt).
        self._bound_params: list = []          # (entry, Parameter)
        self._bound_extra: list = []           # (entry, module, key)
        self._extra_snapshots: dict[int, np.ndarray] = {}
        self._extra_seen: dict[int, int] = {}
        if owner:
            _OWNED[manifest.segment] = self

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, model, name: str | None = None) -> "SharedArena":
        """Pack ``model``'s parameters and running stats into a new segment."""
        arrays = list(_model_arrays(model))
        entries, nbytes = _plan_layout(arrays)
        if name is None:
            name = f"{ARENA_PREFIX}{os.getpid()}_{uuid.uuid4().hex[:8]}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        manifest = ArenaManifest(segment=shm.name, nbytes=nbytes,
                                 slots=len(entries), entries=entries)
        arena = cls(shm, manifest, owner=True)
        for (entry, (_, _, array)) in zip(entries, arrays):
            arena._view(entry)[...] = array
        return arena

    @classmethod
    def attach(cls, manifest: ArenaManifest,
               untrack: bool = False) -> "SharedArena":
        """Map an existing segment zero-copy (worker side).

        Pass ``untrack=True`` only from a process *unrelated* to the
        arena's owner (a separately launched CLI, say) so that its
        resource tracker does not unlink the segment at exit; processes
        the owner spawned via ``multiprocessing`` share the owner's
        tracker and must leave the registration alone.
        """
        shm = shared_memory.SharedMemory(name=manifest.segment, create=False)
        if untrack:
            _untrack(shm)
        return cls(shm, manifest, owner=False)

    # -- views ----------------------------------------------------------
    def _view(self, entry: ArenaEntry, fresh: bool = False) -> np.ndarray:
        """Array view into the segment; cached unless ``fresh``."""
        if not fresh and entry.name in self._views:
            return self._views[entry.name]
        dtype = np.dtype(entry.dtype)
        count = int(np.prod(entry.shape, dtype=np.int64)) if entry.shape else 1
        view = np.frombuffer(self._shm.buf, dtype=dtype, count=count,
                             offset=entry.offset).reshape(entry.shape)
        if not self._owner:
            view.flags.writeable = False
        if not fresh:
            self._views[entry.name] = view
        return view

    def view(self, name: str) -> np.ndarray:
        """The live array view for a manifest entry, by dotted name."""
        return self._view(self.manifest.entry(name))

    # -- parent side ----------------------------------------------------
    def bind(self, model) -> "SharedArena":
        """Rebind ``model``'s parameters/stats to live inside the segment.

        Parent views stay writable so training, ``load_state_dict`` and
        ``Parameter.mutate()`` keep working in place; :meth:`publish`
        ships the resulting version bumps to workers.
        """
        self._check_open()
        self._bound_params = []
        self._bound_extra = []
        params = dict(model.named_parameters())
        stateful = list(model._named_stateful())
        for entry in self.manifest.entries:
            view = self._view(entry)
            if entry.kind == _KIND_PARAM:
                param = params.get(entry.name)
                if param is None:
                    raise ConfigError(
                        f"model has no parameter {entry.name!r}; was the "
                        f"arena built from a different architecture?")
                if param.data.shape != view.shape:
                    raise ConfigError(
                        f"shape mismatch for {entry.name!r}: model has "
                        f"{param.data.shape}, arena has {view.shape}")
                if param.data is not view:
                    view[...] = param.data
                    param.data = view
                self._bound_params.append((entry, param))
            else:
                module, key = self._extra_owner(stateful, entry.name)
                current = np.asarray(getattr(module, key))
                if current is not view:
                    view[...] = current
                    setattr(module, key, view)
                self._bound_extra.append((entry, module, key))
                self._extra_snapshots[entry.slot] = view.copy()
        self.publish(model)
        return self

    def publish(self, model=None) -> int:
        """Push current parameter versions (and drifted arrays) to workers.

        Any parameter whose array was rebound away from its arena view
        (optimizer steps that allocate, ``upgrade_model``) is copied
        back in; batch-norm running stats are content-compared against
        the last published snapshot and get their slot bumped on drift.
        When any slot changed, the generation counter moves once, after
        every slot is written, which is what tells a worker's
        :meth:`refresh` to walk the slots.  Returns the number of slots
        whose counter changed.
        """
        self._check_open()
        changed = 0
        for entry, param in self._bound_params:
            view = self._view(entry)
            if param.data is not view:
                view[...] = param.data
                param.data = view       # setter bumps the version
            if int(self._versions[entry.slot]) != param.version:
                self._versions[entry.slot] = param.version
                changed += 1
        for entry, module, key in self._bound_extra:
            view = self._view(entry)
            current = np.asarray(getattr(module, key))
            if current is not view:
                view[...] = current
                setattr(module, key, view)
                drifted = True
            else:
                drifted = not np.array_equal(
                    view, self._extra_snapshots[entry.slot])
            if drifted:
                self._versions[entry.slot] += 1
                self._extra_snapshots[entry.slot] = view.copy()
                changed += 1
        if changed:
            self._generation[0] += 1
        return changed

    # -- worker side ----------------------------------------------------
    def adopt(self, model) -> "SharedArena":
        """Point a worker's model at the shared weights, read-only.

        Parameters are rebound to read-only views and adopt the
        published version counters, so locally compiled plans carry the
        parent's version numbers from the start.
        """
        self._check_open()
        self._bound_params = []
        self._bound_extra = []
        generation = int(self._generation[0])
        params = dict(model.named_parameters())
        stateful = list(model._named_stateful())
        for entry in self.manifest.entries:
            view = self._view(entry)
            if entry.kind == _KIND_PARAM:
                param = params.get(entry.name)
                if param is None:
                    raise ConfigError(
                        f"worker model has no parameter {entry.name!r}; "
                        f"model_factory must rebuild the served "
                        f"architecture")
                if param.data.shape != view.shape:
                    raise ConfigError(
                        f"shape mismatch for {entry.name!r}: worker model "
                        f"has {param.data.shape}, arena has {view.shape}")
                param.data = view
                param.sync_version(int(self._versions[entry.slot]))
                self._bound_params.append((entry, param))
            else:
                module, key = self._extra_owner(stateful, entry.name)
                setattr(module, key, view)
                self._bound_extra.append((entry, module, key))
                self._extra_seen[entry.slot] = int(self._versions[entry.slot])
        self._seen_generation = generation
        return self

    def refresh(self, model=None) -> int:
        """Adopt any version counters the parent published since last call.

        Called before every worker request.  While the generation
        counter has not moved since the last adopt or refresh, this is
        one int64 compare and returns 0 without walking any slot.  After
        a publish it walks the slots: parameters whose counter moved get
        :meth:`Parameter.sync_version`-ed, which is exactly what makes
        ``InferencePlan.is_valid()`` fail and the worker's ``PlanCache``
        recompile.  Running-stat slots rebind the module attribute to a
        *fresh* view object so the plan's identity check fails too.
        The generation is read before the walk, so a publish racing the
        walk makes the next refresh walk again.  Returns the number of
        adopted slots.
        """
        self._check_open()
        generation = int(self._generation[0])
        if generation == self._seen_generation:
            return 0
        adopted = 0
        for entry, param in self._bound_params:
            published = int(self._versions[entry.slot])
            if published != param.version:
                param.sync_version(published)
                adopted += 1
        for entry, module, key in self._bound_extra:
            published = int(self._versions[entry.slot])
            if published != self._extra_seen.get(entry.slot):
                setattr(module, key, self._view(entry, fresh=True))
                self._extra_seen[entry.slot] = published
                adopted += 1
        self._seen_generation = generation
        return adopted

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError(
                f"arena {self.manifest.segment} is closed")

    def close(self) -> None:
        """Drop this process's mapping.  Idempotent.

        Numpy views handed out earlier (including parameters still
        bound to the segment) keep the underlying mmap alive until they
        are garbage collected; ``close`` is best-effort by design.
        """
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        self._generation = None
        self._versions = None
        self._bound_params = []
        self._bound_extra = []
        try:
            self._shm.close()
        except BufferError:  # live views still exported — harmless
            _defuse(self._shm)

    def unlink(self) -> None:
        """Remove the segment from the system (owner only).  Idempotent."""
        if self._unlinked:
            return
        if not self._owner or os.getpid() != self._owner_pid:
            return
        self._unlinked = True
        _OWNED.pop(self.manifest.segment, None)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def release(self) -> None:
        """Close the mapping and, if owner, unlink the segment."""
        self.close()
        self.unlink()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _extra_owner(self, stateful, name: str):
        for prefix, module in stateful:
            if name.startswith(prefix):
                key = name[len(prefix):]
                if key in module.extra_state():
                    return module, key
        raise ConfigError(
            f"model has no running-stat buffer {name!r}; was the arena "
            f"built from a different architecture?")


def _disinherit() -> None:
    """Forget arenas a forked child inherited from its parent.

    Called at worker boot: the inherited registry entries belong to the
    parent (their owner pid says so), and the child must neither unlink
    them at exit nor complain when their pinned mappings are collected.
    """
    pid = os.getpid()
    for name, arena in list(_OWNED.items()):
        if arena._owner_pid != pid:
            _defuse(arena._shm)
            _OWNED.pop(name, None)


def owned_segments() -> list[str]:
    """Arena segments created (and not yet unlinked) by this process."""
    pid = os.getpid()
    return sorted(name for name, arena in _OWNED.items()
                  if arena._owner_pid == pid and not arena._unlinked)


def shm_segments() -> list[str]:
    """Live arena segments visible on this machine.

    Scans ``/dev/shm`` where available (Linux); falls back to this
    process's owned registry elsewhere.  Used by the test-suite leak
    fixture to fail any test that leaves a segment behind.
    """
    root = "/dev/shm"
    if os.path.isdir(root):
        try:
            return sorted(name for name in os.listdir(root)
                          if name.startswith(ARENA_PREFIX))
        except OSError:
            pass
    return owned_segments()


@atexit.register
def _cleanup_owned() -> None:  # pragma: no cover - interpreter teardown
    pid = os.getpid()
    for arena in list(_OWNED.values()):
        if arena._owner_pid == pid:
            try:
                arena.release()
            except Exception:
                pass
