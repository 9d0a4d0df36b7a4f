"""OpenBLAS thread control for worker processes, through ctypes only.

numpy's default OpenBLAS starts one pool thread per core, and every
forked serving worker would rebuild that pool: two workers on two cores
then run four BLAS threads that spin-wait after every call.  Worker
processes run single-threaded BLAS instead; a pool's parallelism is its
worker count.

* :func:`blas_threads` reports the loaded OpenBLAS's thread count.
* :func:`single_thread_forks` pins the parent to one thread while it
  forks workers, so the children inherit a count of 1 and never build a
  pool.  On exit it restores the previous count and shuts the pool down
  again, leaving the parent exactly as a plain fork would: its previous
  count, no pool threads, the pool rebuilt lazily on its next BLAS call.
  (Pinning inside a forked child instead makes OpenBLAS rebuild its pool
  first, and restoring without the shutdown leaves a fresh pool thread
  spin-waiting in the parent while the workers boot.)
* :func:`pin_single_thread` is the child-side check: a spawned worker
  loads a fresh OpenBLAS with the default count and pins it there; under
  fork it does nothing.

The library is found once, lazily, through ``/proc/self/maps``.  Without
OpenBLAS (another BLAS vendor, or no ``/proc``) every call is a no-op and
:func:`blas_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

__all__ = ["blas_threads", "single_thread_forks", "pin_single_thread"]

# Exported names differ by build: plain OpenBLAS, scipy-openblas
# ("scipy_" prefix) and ILP64 builds ("64_" suffix).
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


class _OpenBLAS(NamedTuple):
    get_num_threads: Callable
    set_num_threads: Callable
    shutdown: Callable | None      # absent from OpenMP builds


def _symbol(lib, name: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            func = getattr(lib, f"{prefix}{name}{suffix}", None)
            if func is not None:
                return func
    return None


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """The OpenBLAS this process has loaded, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in f[5].lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = _symbol(lib, "openblas_get_num_threads")
        set_ = _symbol(lib, "openblas_set_num_threads")
        if get is None or set_ is None:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.restype, shutdown.argtypes = ctypes.c_int, []
        return _OpenBLAS(get, set_, shutdown)
    return None


def blas_threads() -> int | None:
    """OpenBLAS's current thread count; ``None`` without OpenBLAS."""
    lib = _openblas()
    return None if lib is None else int(lib.get_num_threads())


def _set_and_shut_down(lib: _OpenBLAS, threads: int) -> None:
    lib.set_num_threads(threads)
    if lib.shutdown is not None:
        lib.shutdown()


@contextmanager
def single_thread_forks() -> Iterator[None]:
    """Run the block (which forks workers) with one BLAS thread.

    Processes forked inside inherit a count of 1.  On exit the previous
    count is restored and the pool shut down; it is rebuilt on the
    parent's next multi-threaded BLAS call.
    """
    previous = blas_threads()
    if previous is None or previous == 1:
        yield
        return
    lib = _openblas()
    lib.set_num_threads(1)
    try:
        yield
    finally:
        _set_and_shut_down(lib, previous)


def pin_single_thread() -> None:
    """Pin this process to one BLAS thread; a no-op if it already is."""
    threads = blas_threads()
    if threads is not None and threads != 1:
        _set_and_shut_down(_openblas(), 1)
