"""Module and Parameter: the building blocks of the layer library.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
registered automatically on attribute assignment.  It provides the usual
traversal (``parameters``, ``named_parameters``), train/eval mode switching,
gradient zeroing, and flat ``state_dict`` (de)serialization.

Every write that can stale a compiled inference plan also bumps one
process-wide *mutation epoch* (:func:`mutation_epoch`): a
:class:`Parameter` version change, and a :class:`Module` binding a
parameter, a child module or an attribute named in
:meth:`Module.extra_state`.  Staleness checks compare the epoch first
and walk the model only after it moved.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Iterator

import numpy as np

from ..errors import ConfigError
from ..tensor import Tensor


# The slot descriptor Tensor declares for ``data``; Parameter shadows it
# with a property below so rebinding writes bump the version counter.
_TENSOR_DATA = Tensor.data

# Every bump stores a fresh value from one counter (``next`` on an
# ``itertools.count`` is atomic under the GIL), so a reader that saw
# value ``e`` and still reads ``e`` knows no bump landed in between,
# even when two threads bump at once.
_EPOCHS = itertools.count(1)
_epoch = 0


def mutation_epoch() -> int:
    """The process-wide mutation epoch: moves on every write that can
    stale a compiled plan.

    Equal readings mean no parameter version, parameter or child-module
    binding, or running-statistics binding changed anywhere in the
    process in between.  A moved epoch says only that *something*
    changed; callers then walk their model to see whether it was theirs.
    """
    return _epoch


def _bump_epoch() -> None:
    global _epoch
    _epoch = next(_EPOCHS)


class Parameter(Tensor):
    """A trainable tensor: ``requires_grad`` defaults to True.

    Every *rebinding* write to :attr:`data` (``param.data = arr``,
    ``param.data -= lr * grad``) bumps a monotone :attr:`version`
    counter, which compiled inference plans use to detect staleness.
    In-place element writes (``param.data[...] = arr``) bypass the
    property; wrap them in ``with param.mutate() as data:`` so the
    version is bumped automatically, or call :meth:`bump_version`
    explicitly.  Every version change also bumps the process-wide
    :func:`mutation_epoch`.
    """

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self._version = 0

    @property
    def data(self) -> np.ndarray:
        return _TENSOR_DATA.__get__(self, Parameter)

    @data.setter
    def data(self, value) -> None:
        _TENSOR_DATA.__set__(self, value)
        # __init__ routes through here before _version exists.
        self._version = getattr(self, "_version", -1) + 1
        _bump_epoch()

    @property
    def version(self) -> int:
        """Monotone mutation counter (see class docstring)."""
        return self._version

    def bump_version(self) -> int:
        """Record an in-place mutation that bypassed the ``data`` setter."""
        self._version += 1
        _bump_epoch()
        return self._version

    def sync_version(self, version: int) -> int:
        """Adopt an externally published version counter.

        Used by :class:`~repro.tensor.shared.SharedArena` to carry
        version counters across process boundaries: a worker syncs its
        parameters to the counters the serving parent published, so the
        plan-cache staleness check fires cross-process exactly as it
        would in-process.  Unlike :meth:`bump_version` this may set any
        value, including one the local process never saw.  Only a
        change of value bumps the :func:`mutation_epoch`.
        """
        version = int(version)
        if version != self._version:
            self._version = version
            _bump_epoch()
        return self._version

    @contextlib.contextmanager
    def mutate(self):
        """In-place mutation scope: yields the raw array, bumps on exit.

        Use for element writes that would otherwise silently bypass the
        version counter::

            with param.mutate() as data:
                data[:k] = pruned

        The version is bumped even if the body raises — a partial write
        still invalidates compiled plans.
        """
        try:
            yield _TENSOR_DATA.__get__(self, Parameter)
        finally:
            self.bump_version()


class Module:
    """Base class for all neural-network layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            _bump_epoch()
        elif isinstance(value, Module):
            self._modules[name] = value
            _bump_epoch()
        elif self._binds_extra_state(name):
            _bump_epoch()
        object.__setattr__(self, name, value)

    def _binds_extra_state(self, name: str) -> bool:
        """Whether setting ``name`` rebinds an :meth:`extra_state` entry."""
        if type(self).extra_state is Module.extra_state:
            return False
        try:
            return name in self.extra_state()
        except AttributeError:   # mid-__init__: not every entry exists yet
            return True

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used for module lists)."""
        if not isinstance(module, Module):
            raise ConfigError(f"{name} is not a Module")
        self._modules[name] = module
        _bump_epoch()
        object.__setattr__(self, name, module)

    # -- traversal --------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for this module and children."""
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        """Yield the direct child modules."""
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- mode & grads -----------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout, batch norm)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Drop the gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    # -- shared memory ----------------------------------------------------
    def share_memory(self, arena=None):
        """Move parameters and running stats into a shared-memory arena.

        Packs the widest-rate weights into one
        ``multiprocessing.shared_memory`` segment (see
        :class:`~repro.tensor.shared.SharedArena`) and rebinds this
        model's parameters to views of it.  Returns the arena; hand its
        ``manifest`` to worker processes, which
        :meth:`~repro.tensor.shared.SharedArena.attach` and
        :meth:`~repro.tensor.shared.SharedArena.adopt` the same segment
        zero-copy.  The caller owns the arena's lifecycle
        (``close()``/``unlink()`` or use it as a context manager).
        """
        from ..tensor.shared import SharedArena

        if arena is None:
            arena = SharedArena.create(self)
        arena.bind(self)
        return arena

    # -- serialization ----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter names to copies of their arrays."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, module in self._named_stateful():
            for key, value in module.extra_state().items():
                state[name + key] = value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict on names/shapes)."""
        remaining = dict(state)
        for name, param in self.named_parameters():
            if name not in remaining:
                raise ConfigError(f"state_dict is missing parameter {name!r}")
            value = remaining.pop(name)
            if value.shape != param.data.shape:
                raise ConfigError(
                    f"shape mismatch for {name!r}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            with param.mutate() as data:
                data[...] = value
        for name, module in self._named_stateful():
            extra = module.extra_state()
            for key in extra:
                full = name + key
                if full not in remaining:
                    raise ConfigError(f"state_dict is missing buffer {full!r}")
                module.load_extra_state(key, remaining.pop(full))
        if remaining:
            raise ConfigError(f"unexpected keys in state_dict: {sorted(remaining)}")

    def _named_stateful(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield modules that carry non-parameter state (running stats)."""
        if self.extra_state():
            yield (prefix, self)
        for name, module in self._modules.items():
            yield from module._named_stateful(prefix + name + ".")

    def extra_state(self) -> dict[str, np.ndarray]:
        """Non-parameter state to persist; overridden by e.g. batch norm."""
        return {}

    def load_extra_state(self, key: str, value: np.ndarray) -> None:
        """Restore one entry of :meth:`extra_state`."""
        raise ConfigError(f"{type(self).__name__} has no extra state {key!r}")

    # -- call -------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"


class ModuleList(Module):
    """An indexable, iterable container of child modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: "Module") -> None:
        self.register_module(str(len(self._items)), module)
        self._items.append(module)

    def register_module(self, name: str, module: "Module") -> None:
        super().register_module(name, module)
        # Keep the ordered item list in sync when an existing slot is
        # replaced (e.g. by upgrade_model).
        if name.isdigit() and int(name) < len(self._items):
            self._items[int(name)] = module

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args, **kwargs):
        raise ConfigError("ModuleList is a container and cannot be called")
