"""Mapping resource budgets to slice rates and profiles (Eq. 3 + search).

The computation of ``Subnet-r`` is roughly ``r**2`` times the full
network's, so a run-time budget ``C_t`` admits any rate
``r <= sqrt(C_t / C_0)``.  These helpers pick the largest valid candidate
rate under a budget, and the latency-constrained variant used by the
serving controller (Sec. 4.1): choose ``r`` with ``n * r**2 * t <= T/2``.

:func:`search_profile_for_budget` generalizes Eq. 3 to per-layer
profiles: instead of one global rate bounded by ``sqrt(C_t/C_0)``, a
greedy ascent starts every width-controlling slice point at the
narrowest candidate rate and repeatedly widens whichever point buys the
most width per unit of *measured* cost while staying under the budget.
The returned non-uniform profile spends the budget where it matters
(cheap layers widen first), which is how a searched profile can beat the
best uniform rate at equal FLOPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .. import obs
from ..errors import BudgetError
from .context import validate_rate
from .plans import AttentionStep, compile_layer
from .profile import LayerProfile, SliceProfile, UniformProfile


def max_rate_for_budget(budget: float, full_cost: float) -> float:
    """The continuous Eq. 3 bound: ``min(sqrt(budget / full_cost), 1)``."""
    if full_cost <= 0:
        raise BudgetError(f"full_cost must be positive, got {full_cost}")
    if budget <= 0:
        raise BudgetError(f"budget must be positive, got {budget}")
    return min(math.sqrt(budget / full_cost), 1.0)


def rate_for_budget(budget: float, full_cost: float,
                    rates: Sequence[float]) -> float:
    """Largest candidate rate whose quadratic cost fits in ``budget``.

    Parameters
    ----------
    budget:
        Available computation (same unit as ``full_cost``).
    full_cost:
        Cost ``C_0`` of the full network.
    rates:
        The candidate slice rates the deployed model was trained with.

    Raises
    ------
    BudgetError
        If even the smallest candidate rate exceeds the budget.
    """
    bound = max_rate_for_budget(budget, full_cost)
    valid = [validate_rate(r) for r in rates]
    feasible = [r for r in valid if r <= bound + 1e-12]
    if not feasible:
        raise BudgetError(
            f"budget {budget} (bound r<={bound:.4f}) cannot be met; "
            f"smallest candidate rate is {min(valid)}"
        )
    return max(feasible)


def rate_for_latency(batch_size: int, full_latency_per_sample: float,
                     latency_budget: float, rates: Sequence[float],
                     processing_fraction: float = 0.5) -> float:
    """Slice rate for a mini-batch under a latency SLO (Sec. 4.1).

    The paper's controller builds a batch every ``T/2`` and spends the
    remaining ``T/2`` processing it, so it picks the largest rate with
    ``n * r**2 * t <= T * processing_fraction``.

    Raises
    ------
    BudgetError
        If even the smallest rate cannot process the batch in time.
    """
    if batch_size <= 0:
        raise BudgetError("batch_size must be positive")
    window = latency_budget * processing_fraction
    per_sample = window / batch_size
    return rate_for_budget(per_sample, full_latency_per_sample, rates)


# ----------------------------------------------------------------------
# Per-layer profile search
# ----------------------------------------------------------------------
def width_slice_points(model) -> list[tuple[str, object]]:
    """The slice points whose rate controls a layer's *output* width.

    These are the profile search's decision variables: sliced linear and
    conv layers with ``slice_output=True``, recurrent cells, and
    attention layers (whose decision is the head count — the output
    width follows the input, but the active heads set the layer's
    internal width and cost).  Norm layers and unsliced-output heads
    follow their input width, so they carry no independent width
    decision.

    For transformer models, pass
    :func:`repro.models.transformer.transformer_search_points` as the
    search's ``points``: the residual-width controllers and ``fc2``
    must stay at the profile default, so perturbing them independently
    raises a shape error at the residual add.
    """
    from ..nn.attention import MultiHeadSelfAttention
    from .layers import SlicedConv2d, SlicedLinear
    from .profile import named_slice_points
    from .recurrent import _SlicedRecurrentBase

    points: list[tuple[str, object]] = []
    for name, module in named_slice_points(model):
        if isinstance(module, (SlicedLinear, SlicedConv2d)):
            if module.slice_output:
                points.append((name, module))
        elif isinstance(module, (_SlicedRecurrentBase,
                                 MultiHeadSelfAttention)):
            points.append((name, module))
    return points


def _point_width(module, rate: float) -> int:
    """Active width of a width-controlling module at ``rate``, read off
    its compiled step: the output width, or for attention the active
    heads times the head size (its decision is head-granular)."""
    step = compile_layer(module, rate)
    if isinstance(step, AttentionStep):
        return step.heads * step.head_dim
    return step.out_width


@dataclass
class ProfileSearchResult:
    """Outcome of a budget-constrained profile search."""

    profile: SliceProfile
    cost: float
    budget: float
    evals: int
    history: list[tuple[str, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "profile": {name: rate for name, rate in self.profile.items()},
            "default_rate": self.profile.rate_for(None),
            "fingerprint": self.profile.fingerprint(),
            "uniform": self.profile.uniform,
            "cost": self.cost,
            "budget": self.budget,
            "evals": self.evals,
        }


class _CostEvaluator:
    """Memoized profile-cost evaluation with obs accounting."""

    def __init__(self, cost_fn: Callable[[SliceProfile], float]):
        self._cost_fn = cost_fn
        self._memo: dict[str, float] = {}
        self.evals = 0

    def __call__(self, profile: SliceProfile) -> float:
        key = profile.fingerprint()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        cost = float(self._cost_fn(profile))
        self._memo[key] = cost
        self.evals += 1
        if obs.enabled():
            obs.count("profile_search_evals_total")
        return cost


def _make_cost_fn(model, input_shape, cost_fn, input_builder):
    if cost_fn is not None:
        return cost_fn
    if input_shape is None:
        raise BudgetError("profile search needs input_shape or cost_fn")
    from ..metrics.flops import measured_flops

    return lambda profile: measured_flops(
        model, input_shape, rate=profile, input_builder=input_builder)


def search_profile_for_budget(
        model, input_shape, budget: float, rates: Sequence[float], *,
        cost_fn: Callable[[SliceProfile], float] | None = None,
        points: Sequence[str] | None = None,
        importance: dict[str, float] | None = None,
        default_rate: float = 1.0,
        input_builder=None) -> ProfileSearchResult:
    """Greedy per-layer profile search under a cost budget.

    Starts every width-controlling slice point at the narrowest candidate
    rate and repeatedly raises the point with the best
    ``importance * width_gain / extra_cost`` among the raises that stay
    within ``budget``, until no raise fits.  Costs are *measured* (one
    instrumented forward per evaluated profile, memoized by fingerprint),
    so the search sees the true per-layer cost structure rather than the
    global ``r**2`` approximation.

    Parameters
    ----------
    budget:
        Cost ceiling, in the units of ``cost_fn`` (FLOPs by default).
    rates:
        Candidate rates each slice point may take (typically the trained
        rates, so every searched profile slices along trained widths).
    cost_fn:
        Optional ``profile -> cost`` override (e.g. measured latency).
    points:
        Slice-point names to search over; defaults to
        :func:`width_slice_points`.
    importance:
        Optional per-point weights biasing the greedy score (e.g. from
        group-scale telemetry); missing points weigh 1.0.
    default_rate:
        Rate for slice points outside the searched set.

    Raises
    ------
    BudgetError
        If even the all-narrowest profile exceeds ``budget``.
    """
    candidates = sorted({validate_rate(r) for r in rates})
    if not candidates:
        raise BudgetError("profile search needs at least one candidate rate")
    modules = dict(width_slice_points(model))
    if points is None:
        names = list(modules)
    else:
        names = [str(p) for p in points]
        missing = [n for n in names if n not in modules]
        if missing:
            raise BudgetError(
                f"unknown width slice points {missing}; "
                f"available: {sorted(modules)}")
    importance = importance or {}
    evaluate = _CostEvaluator(_make_cost_fn(
        model, input_shape, cost_fn, input_builder))

    profile = LayerProfile({n: candidates[0] for n in names},
                           default=default_rate)
    cost = evaluate(profile)
    if cost > budget:
        raise BudgetError(
            f"even the narrowest profile costs {cost:.4g} "
            f"> budget {budget:.4g}")
    history: list[tuple[str, float]] = [(profile.fingerprint(), cost)]

    while True:
        best_name, best_profile, best_cost, best_score = None, None, None, 0.0
        for name in names:
            current = profile.rate_for(name)
            index = candidates.index(current)
            if index + 1 == len(candidates):
                continue
            trial = profile.with_rate(name, candidates[index + 1])
            trial_cost = evaluate(trial)
            if trial_cost > budget:
                continue
            module = modules[name]
            gain = (_point_width(module, candidates[index + 1])
                    - _point_width(module, current)) \
                / _point_width(module, 1.0)
            delta = max(trial_cost - cost, 1e-12)
            score = importance.get(name, 1.0) * gain / delta
            if score > best_score:
                best_name, best_profile = name, trial
                best_cost, best_score = trial_cost, score
        if best_profile is None:
            break
        profile, cost = best_profile, best_cost
        history.append((profile.fingerprint(), cost))

    return ProfileSearchResult(profile=profile, cost=cost, budget=budget,
                               evals=evaluate.evals, history=history)


def uniform_rate_for_budget(
        model, input_shape, budget: float, rates: Sequence[float], *,
        cost_fn: Callable[[SliceProfile], float] | None = None,
        input_builder=None) -> ProfileSearchResult:
    """Largest uniform candidate rate under ``budget``, by measured cost.

    The uniform counterpart of :func:`search_profile_for_budget` (and
    the measured-cost refinement of :func:`rate_for_budget`), used as
    the baseline a searched profile has to beat.
    """
    candidates = sorted({validate_rate(r) for r in rates})
    evaluate = _CostEvaluator(_make_cost_fn(
        model, input_shape, cost_fn, input_builder))
    best: tuple[SliceProfile, float] | None = None
    history: list[tuple[str, float]] = []
    for rate in candidates:
        profile = UniformProfile(rate)
        cost = evaluate(profile)
        history.append((profile.fingerprint(), cost))
        if cost <= budget:
            best = (profile, cost)
    if best is None:
        raise BudgetError(
            f"no uniform candidate rate fits budget {budget:.4g}; "
            f"smallest candidate is {candidates[0]}")
    return ProfileSearchResult(profile=best[0], cost=best[1], budget=budget,
                               evals=evaluate.evals, history=history)
