"""Slice profiles: per-layer slice rates behind one ambient context.

The paper shares a single slice rate ``r`` across every sliced layer
"for simplicity" (Sec. 3.1), but Eq. 2's prefix-nesting constraint is
*per layer*: each sliced layer only needs its own active groups to form
a prefix of its own width.  A :class:`SliceProfile` generalizes the
scalar rate into an ordered mapping from named *slice points* (one per
sliced module) to rates:

* :class:`UniformProfile` — the paper's shared scalar, the degenerate
  profile that resolves every slice point to the same rate.  It compares
  and hashes like its float rate, so tables and caches keyed on scalar
  rates keep working unchanged.
* :class:`LayerProfile` — an explicit ordered ``{slice_point: rate}``
  mapping with a ``default`` for unnamed points.  Non-uniform profiles
  dominate the uniform accuracy/FLOPs Pareto frontier (Slimmable
  Networks; Slicing ViT, arXiv:2412.04786), which is what the budget
  search in :mod:`repro.slicing.budget` exploits.

Every sliced module registers a slice-point name on construction (an
auto-generated one, overridden with stable dotted paths by
:func:`assign_slice_points`, which the bundled models call) and resolves
its own rate from the ambient profile via
:func:`repro.slicing.context.resolve_rate`.

Canonicalization: a :class:`LayerProfile` whose explicit entries all
equal its default collapses to the same fingerprint as the matching
:class:`UniformProfile`, so ``UniformProfile(r)`` and "all layers at
``r``" share plan-cache entries and compare equal.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Mapping

from ..errors import SliceRateError


def validate_rate(rate: float) -> float:
    """Check ``rate`` is a valid slice rate and return it as a float."""
    rate = float(rate)
    if not 0.0 < rate <= 1.0:
        raise SliceRateError(f"slice rate must be in (0, 1], got {rate}")
    return rate


def snap_rate(rate: float, num_groups: int) -> int:
    """Snap ``rate`` to the number of groups it activates under ``G`` groups.

    This is the same rounding :class:`~repro.slicing.partition.GroupPartition`
    applies, exposed so profile comparisons can happen at the granularity a
    grouped slice point actually resolves widths at: two rates that activate
    the same group count produce identical prefixes and must compare equal.
    """
    rate = validate_rate(rate)
    return min(max(round(rate * num_groups), 1), num_groups)


class SliceProfile:
    """Ordered mapping from slice-point names to slice rates.

    Subclasses implement :meth:`rate_for` and :meth:`fingerprint`.
    Profiles are immutable value objects: equality and hashing follow
    the canonical fingerprint (with uniform profiles degrading to their
    scalar rate so float-keyed tables interoperate), and ordering
    follows ``(mean_rate, fingerprint)`` — a deterministic total order
    whose scalar proxy matches the rate itself for uniform profiles.
    """

    #: True when every slice point resolves to the same rate.
    uniform = False

    def rate_for(self, slice_point: str | None) -> float:
        """The slice rate this profile assigns to ``slice_point``."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Canonical string identity (plan-cache / metrics key)."""
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Scalar proxy used for ordering, telemetry and nearest lookups."""
        raise NotImplementedError

    def items(self) -> tuple[tuple[str, float], ...]:
        """The explicit ``(slice_point, rate)`` entries, in order."""
        return ()

    def label(self) -> str:
        """Short human-readable identity for metric labels."""
        return self.fingerprint()

    # -- value semantics -------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, SliceProfile):
            return self.fingerprint() == other.fingerprint()
        if isinstance(other, (int, float)):
            return self.uniform and float(self) == float(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.uniform:
            return hash(float(self))
        return hash(self.fingerprint())

    def __float__(self) -> float:
        return self.mean_rate()

    def _order_key(self) -> tuple[float, str]:
        return (self.mean_rate(), self.fingerprint())

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_key() < other._order_key()

    def __le__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_key() <= other._order_key()

    def __gt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_key() > other._order_key()

    def __ge__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._order_key() >= other._order_key()

    def __format__(self, spec: str) -> str:
        return self.label()


class UniformProfile(SliceProfile):
    """The degenerate profile: one shared rate for every slice point.

    ``UniformProfile(r)`` is bitwise-equivalent to the pre-profile
    scalar path — every resolution returns the exact same float — and
    hashes/compares equal to ``r`` itself, so rate-keyed dictionaries
    (accuracy tables, artifacts, latency calibrations) accept either.
    """

    uniform = True

    def __init__(self, rate: float):
        self.rate = validate_rate(rate)
        self._fingerprint = f"u:{self.rate!r}"

    def rate_for(self, slice_point: str | None) -> float:
        return self.rate

    def fingerprint(self) -> str:
        return self._fingerprint

    def mean_rate(self) -> float:
        return self.rate

    def label(self) -> str:
        return f"{self.rate:g}"

    def __repr__(self) -> str:
        return f"UniformProfile({self.rate})"


class LayerProfile(SliceProfile):
    """An explicit ordered mapping from slice-point names to rates.

    Parameters
    ----------
    rates:
        Mapping (or iterable of pairs) from slice-point name to rate.
        Insertion order is preserved for display; the fingerprint sorts
        names so the identity is order-independent.
    default:
        Rate for slice points not named in ``rates`` (also what
        :func:`repro.slicing.context.current_rate` reports while the
        profile is active).
    """

    def __init__(self, rates: Mapping[str, float] | Iterable[tuple[str, float]],
                 default: float = 1.0):
        entries = rates.items() if isinstance(rates, Mapping) else rates
        self._rates: dict[str, float] = {
            str(name): validate_rate(rate) for name, rate in entries}
        self.default = validate_rate(default)
        self.uniform = all(rate == self.default
                           for rate in self._rates.values())
        if self.uniform:
            self._fingerprint = f"u:{self.default!r}"
        else:
            body = ",".join(f"{name}={self._rates[name]!r}"
                            for name in sorted(self._rates))
            self._fingerprint = f"p:{body};default={self.default!r}"
        values = list(self._rates.values()) or [self.default]
        self._mean = float(sum(values) / len(values))

    def rate_for(self, slice_point: str | None) -> float:
        if slice_point is None:
            return self.default
        return self._rates.get(slice_point, self.default)

    def fingerprint(self) -> str:
        return self._fingerprint

    def mean_rate(self) -> float:
        return self.default if self.uniform else self._mean

    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(self._rates.items())

    def label(self) -> str:
        if self.uniform:
            return f"{self.default:g}"
        digest = hashlib.sha1(self._fingerprint.encode()).hexdigest()[:8]
        return f"prof:{digest}"

    def with_rate(self, slice_point: str, rate: float) -> "LayerProfile":
        """A copy with one slice point's rate replaced (search steps)."""
        updated = dict(self._rates)
        updated[str(slice_point)] = validate_rate(rate)
        return LayerProfile(updated, default=self.default)

    def pointwise_leq(self, other: "SliceProfile",
                      names: Iterable[str] | None = None,
                      granularity: Mapping[str, int] | None = None) -> bool:
        """True if this profile is <= ``other`` at every slice point.

        Pointwise-ordered profiles preserve Eq. 2 across profiles: every
        layer's active prefix under ``self`` is a prefix of its active
        prefix under ``other``.

        ``granularity`` maps slice-point names to group counts (see
        :func:`slice_granularity`).  Grouped points — attention head
        partitions, grouped linear widths — quantize their rate, so two
        rates activating the same groups are the *same* width; comparing
        at group granularity keeps the ordering faithful to the widths
        the model will actually run at.  Points without a granularity
        entry compare on raw rates, as before.
        """
        if names is None:
            names = set(self._rates) | {n for n, _ in other.items()}
        if self.default > other.rate_for(None):
            return False
        granularity = granularity or {}
        for name in names:
            mine = self.rate_for(name)
            theirs = other.rate_for(name)
            groups = granularity.get(name)
            if groups:
                if snap_rate(mine, groups) > snap_rate(theirs, groups):
                    return False
            elif mine > theirs:
                return False
        return True

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={rate:g}"
                         for name, rate in self._rates.items())
        return f"LayerProfile({{{body}}}, default={self.default:g})"


def as_profile(value) -> SliceProfile:
    """Coerce ``value`` into a :class:`SliceProfile`.

    Floats become :class:`UniformProfile`; mappings become
    :class:`LayerProfile`; profiles pass through unchanged.
    """
    if isinstance(value, SliceProfile):
        return value
    if isinstance(value, (int, float)):
        return UniformProfile(value)
    if isinstance(value, Mapping):
        return LayerProfile(value)
    raise SliceRateError(
        f"cannot interpret {value!r} as a slice rate or profile")


def _coerce(value) -> SliceProfile | None:
    if isinstance(value, SliceProfile):
        return value
    if isinstance(value, (int, float)):
        return UniformProfile(value)
    return None


# ----------------------------------------------------------------------
# Slice-point registration
# ----------------------------------------------------------------------
_AUTO_COUNTER = itertools.count()


def auto_slice_point(module) -> str:
    """A process-unique fallback name for a sliced module.

    Models replace these with stable dotted paths via
    :func:`assign_slice_points`.
    """
    return f"{type(module).__name__.lower()}@{next(_AUTO_COUNTER)}"


def named_slice_points(model) -> list[tuple[str, object]]:
    """Ordered ``(path, module)`` pairs for every sliced module.

    A module participates if it carries a ``slice_point`` attribute
    (every sliced layer and recurrent cell registers one on
    construction).  Paths are dotted module paths relative to ``model``.
    """
    points: list[tuple[str, object]] = []

    def visit(module, prefix: str) -> None:
        if hasattr(module, "slice_point"):
            name = prefix[:-1] if prefix else type(module).__name__.lower()
            points.append((name, module))
        for child_name, child in module._modules.items():
            visit(child, prefix + child_name + ".")

    visit(model, "")
    return points


def slice_granularity(model) -> dict[str, int]:
    """Map each slice-point name to the group count its rates snap to.

    Grouped slice points quantize rates: a partition with ``G`` groups
    resolves every rate in ``((g-1)/G, g/G]``-ish rounding neighborhoods
    to the same prefix width.  :meth:`LayerProfile.pointwise_leq` and
    :func:`repro.slicing.resume.pointwise_nested` compare at this
    granularity so profile ordering reflects the widths a model actually
    runs at (critical for attention, where a "group" is a whole head).
    Points whose width is not partition-driven are omitted and compare
    on raw rates.
    """
    grains: dict[str, int] = {}
    for name, module in named_slice_points(model):
        part = getattr(module, "head_partition", None)
        if part is None:
            part = getattr(module, "out_partition", None)
        if part is None:
            part = getattr(module, "partition", None)
        if part is not None:
            grains[name] = part.num_groups
    return grains


def assign_slice_points(model) -> dict[str, object]:
    """Rename every slice point to its stable dotted module path.

    Returns the resulting ``{path: module}`` mapping.  Idempotent; the
    bundled models call this at the end of ``__init__`` so profiles can
    reference layers by architecture position (``"fc0"``, ``"conv3"``,
    ``"lstm.cell1"``, ...).  Every point is also guaranteed to carry a
    ``slice_group_size`` (component count per group along the slice
    axis: 1 for plain width slicing, ``head_dim`` for attention), so
    downstream consumers can rely on the attribute's presence.
    """
    mapping: dict[str, object] = {}
    for name, module in named_slice_points(model):
        module.slice_point = name
        if not hasattr(module, "slice_group_size"):
            module.slice_group_size = 1
        mapping[name] = module
    return mapping
