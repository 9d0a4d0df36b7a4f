"""Model slicing: the paper's core contribution.

* :mod:`~repro.slicing.context` — the ambient slice context
  (``with slice_rate(r): ...`` / ``with slice_profile(p): ...``).
* :mod:`~repro.slicing.profile` — per-layer :class:`SliceProfile`
  objects generalizing the scalar rate.
* :mod:`~repro.slicing.partition` — rate → active-prefix-width mapping at
  group granularity.
* :mod:`~repro.slicing.layers` — sliceable dense/conv/normalization layers.
* :mod:`~repro.slicing.recurrent` — sliceable RNN/LSTM/GRU cells.
* :mod:`~repro.slicing.schemes` — slice-rate scheduling schemes (Sec. 3.4).
* :mod:`~repro.slicing.trainer` — the Algorithm-1 training loop.
* :mod:`~repro.slicing.budget` — budget → rate mapping (Eq. 3).
* :mod:`~repro.slicing.upgrade` — convert plain models to sliceable ones.
* :mod:`~repro.slicing.families` — one op-sequence declaration per model
  family, read by both plan kinds below.
* :mod:`~repro.slicing.plans` — compiled per-profile inference plans.
* :mod:`~repro.slicing.resume` — resumable compiled plans: run narrow,
  retain intermediates, :meth:`~repro.slicing.resume.ResumablePlan.widen`
  to a nested wider profile with the Sec. 3.5 cross-term reuse
  (group-residual computation reuse; ``exact=False`` is the paper's
  approximate rule).
"""

from .context import (
    SliceContext,
    current_profile,
    current_rate,
    resolve_rate,
    slice_profile,
    slice_rate,
    validate_rate,
)
from .profile import (
    LayerProfile,
    SliceProfile,
    UniformProfile,
    as_profile,
    assign_slice_points,
    named_slice_points,
    slice_granularity,
    snap_rate,
)
from .partition import GroupPartition
from .layers import (
    DEFAULT_GROUPS,
    MultiBatchNorm2d,
    SlicedBatchNorm2d,
    SlicedConv2d,
    SlicedGroupNorm,
    SlicedLinear,
)
from .recurrent import (
    SlicedGRUCell,
    SlicedLSTM,
    SlicedLSTMCell,
    SlicedRNNCell,
)
from .schemes import (
    FixedScheme,
    ProfileScheme,
    RandomScheme,
    RandomStaticScheme,
    Scheme,
    StaticScheme,
)
from .distributions import (
    ContinuousScheme,
    categorical_from_cdf,
    exponential_decay_cdf,
    normal_cdf,
    uniform_cdf,
)
from .budget import (
    ProfileSearchResult,
    max_rate_for_budget,
    rate_for_budget,
    rate_for_latency,
    search_profile_for_budget,
    uniform_rate_for_budget,
    width_slice_points,
)
from .trainer import EpochRecord, SliceTrainer
from .upgrade import upgrade_model
from .deploy import materialize_subnet
from .plans import (
    FallbackPlan,
    InferencePlan,
    PlanCache,
    compile_layer,
    compile_plan,
    get_plan,
    shared_cache,
)
from .resume import (
    ResumablePlan,
    compile_resumable,
    pointwise_nested,
    scratch_madds,
)
from . import analysis, families

__all__ = [
    "SliceContext",
    "slice_rate",
    "slice_profile",
    "current_rate",
    "current_profile",
    "resolve_rate",
    "validate_rate",
    "SliceProfile",
    "UniformProfile",
    "LayerProfile",
    "as_profile",
    "assign_slice_points",
    "named_slice_points",
    "slice_granularity",
    "snap_rate",
    "GroupPartition",
    "DEFAULT_GROUPS",
    "SlicedLinear",
    "SlicedConv2d",
    "SlicedGroupNorm",
    "SlicedBatchNorm2d",
    "MultiBatchNorm2d",
    "SlicedRNNCell",
    "SlicedLSTMCell",
    "SlicedGRUCell",
    "SlicedLSTM",
    "Scheme",
    "FixedScheme",
    "StaticScheme",
    "RandomScheme",
    "RandomStaticScheme",
    "ProfileScheme",
    "ContinuousScheme",
    "categorical_from_cdf",
    "uniform_cdf",
    "normal_cdf",
    "exponential_decay_cdf",
    "max_rate_for_budget",
    "rate_for_budget",
    "rate_for_latency",
    "search_profile_for_budget",
    "uniform_rate_for_budget",
    "width_slice_points",
    "ProfileSearchResult",
    "SliceTrainer",
    "EpochRecord",
    "upgrade_model",
    "materialize_subnet",
    "InferencePlan",
    "FallbackPlan",
    "PlanCache",
    "compile_plan",
    "compile_layer",
    "get_plan",
    "shared_cache",
    "ResumablePlan",
    "compile_resumable",
    "pointwise_nested",
    "scratch_madds",
    "families",
    "analysis",
]
