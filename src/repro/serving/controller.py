"""Slice-rate controllers implementing the paper's degradation policy.

Sec. 4.1: queries stream in under a latency SLO ``T``.  The service builds
a mini-batch every ``T/2`` and spends the remaining ``T/2`` processing it,
choosing the widest candidate with ``n * cost(r) <= T/2`` — the paper's
quadratic model ``cost(r) = t * r**2``, or a measured per-sample cost.
Under this design no compute is wasted and every admitted sample meets
the SLO.

Every controller is a :class:`CostTableController`: one cheapest-first
table of ``(candidate, per-sample seconds)`` and that one rule.  The
elastic, fixed and profile policies only build their tables; the cascade
policy reuses the table and replaces the rule with its expected-cost
admission.

Baselines: a fixed full-width policy (drops work under load) and a fixed
narrow policy (wastes accuracy off-peak).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .. import obs
from ..errors import ServingError
from ..slicing.profile import as_profile


def _rate_costs(rates: Sequence[float], full_latency_per_sample: float,
                cost_of_rate: Mapping[float, float] | None) -> dict:
    """Per-sample seconds per rate: the ``cost_of_rate`` entry if there
    is one, else the paper's quadratic model ``t * r * r``."""
    measured = {} if cost_of_rate is None else {
        float(r): float(c) for r, c in cost_of_rate.items()}
    return {float(r): measured.get(
        float(r), full_latency_per_sample * float(r) * float(r))
        for r in rates}


class CostTableController:
    """The Sec. 4.1 rule over a table of per-sample costs.

    Candidates are scalar rates or
    :class:`~repro.slicing.profile.SliceProfile` objects, each with its
    per-sample seconds, held cheapest first.  ``choose`` picks the most
    expensive candidate whose batch fits the ``T/2`` window.  This is
    the protocol the runtime's batcher and engine and the window
    simulator rely on:

    * ``choose(n)`` — the candidate for an ``n``-sample batch, or None;
    * ``rates`` — the candidates, cheapest first; ``floor`` — the first;
    * ``per_sample_cost(rate)`` / ``max_batch(rate)`` — a candidate's
      seconds per sample and the largest batch the window admits at it;
    * ``downgrade(rate)`` — the next cheaper candidate, for retry caps.
    """

    #: Label of the ``controller.decision`` events.
    policy = "cost-table"

    def __init__(self, cost_of_candidate: Mapping, latency_slo: float):
        if latency_slo <= 0:
            raise ServingError("latency_slo must be positive")
        self.latency_slo = latency_slo
        self._set_costs(cost_of_candidate)

    def _set_costs(self, cost_of_candidate: Mapping) -> None:
        entries = [(candidate, float(cost))
                   for candidate, cost in cost_of_candidate.items()]
        if not entries:
            raise ServingError(
                f"{type(self).__name__} needs at least one candidate")
        if any(cost <= 0 for _, cost in entries):
            raise ServingError("per-sample costs must be positive")
        # Cheapest first; mean rate breaks cost ties deterministically.
        self._entries = sorted(entries, key=lambda e: (
            e[1], float(e[0]), as_profile(e[0]).fingerprint()))
        self._costs = {as_profile(candidate).fingerprint(): cost
                       for candidate, cost in self._entries}

    @property
    def rates(self) -> list:
        """Candidates, cheapest first."""
        return [candidate for candidate, _ in self._entries]

    @property
    def floor(self):
        """The cheapest candidate: where shedding and retries bottom out."""
        return self._entries[0][0]

    def per_sample_cost(self, rate) -> float:
        cost = self._costs.get(as_profile(rate).fingerprint())
        if cost is None:
            raise ServingError(f"unknown candidate {rate!r}")
        return cost

    def max_batch(self, rate) -> int:
        """Largest batch the SLO admits at candidate ``rate``."""
        return int(self.latency_slo / 2.0 / self.per_sample_cost(rate))

    def downgrade(self, rate):
        """The next cheaper candidate (or ``rate`` if already cheapest)."""
        fingerprint = as_profile(rate).fingerprint()
        previous = None
        for candidate in self.rates:
            if as_profile(candidate).fingerprint() == fingerprint:
                return previous if previous is not None else rate
            previous = candidate
        # Unknown rate: the most expensive candidate narrower by mean.
        lower = [candidate for candidate in self.rates
                 if float(candidate) < float(rate) - 1e-9]
        return lower[-1] if lower else rate

    def choose(self, batch_size: int):
        """The candidate for a batch, or None if even the floor is too slow.

        While obs is on, each decision is counted and traced.  The event
        carries the run-time budget (``window``, the paper's ``T/2``) and
        the planned spend at the chosen candidate, so a trace shows *why*
        the controller degraded.  Its ``profile`` field is the canonical
        fingerprint, so non-uniform choices are identifiable beyond their
        mean rate.
        """
        decision = self._decide(batch_size) if batch_size else None
        rate, cost = decision or (None, None)
        if obs.enabled():
            label = "none" if rate is None else f"{rate:g}"
            obs.count("controller_decisions_total", rate=label)
            obs.event("controller.decision", policy=self.policy,
                      batch_size=batch_size,
                      rate=None if rate is None else float(rate),
                      profile=None if rate is None
                      else as_profile(rate).fingerprint(),
                      window=self.latency_slo / 2.0,
                      cost=None if rate is None else batch_size * cost)
        return rate

    def _decide(self, batch_size: int):
        """``(candidate, per-sample cost)`` of the most expensive
        candidate whose batch fits ``T/2``, or None."""
        window = self.latency_slo / 2.0
        fits = [entry for entry in self._entries
                if batch_size * entry[1] <= window]
        return fits[-1] if fits else None


class SliceRateController(CostTableController):
    """The paper's elastic policy: pick ``r`` per batch from its size.

    By default the per-sample cost at rate ``r`` follows the paper's
    quadratic model ``t * r**2``.  Passing ``cost_of_rate`` (a mapping of
    candidate rate to *measured* per-sample seconds, e.g. derived from
    :func:`repro.metrics.latency_table`) calibrates the controller to the
    real latency curve instead — small subnets rarely enjoy the full
    quadratic speedup on real hardware.
    """

    policy = "elastic"

    def __init__(self, rates: Sequence[float], full_latency_per_sample: float,
                 latency_slo: float,
                 cost_of_rate: Mapping[float, float] | None = None):
        if latency_slo <= 0 or full_latency_per_sample <= 0:
            raise ServingError("latencies must be positive")
        if cost_of_rate is not None:
            missing = sorted({float(r) for r in rates}
                             - {float(r) for r in cost_of_rate})
            if missing:
                raise ServingError(
                    f"cost_of_rate lacks candidate rates {missing}")
        self.full_latency = full_latency_per_sample
        super().__init__(_rate_costs(rates, full_latency_per_sample,
                                     cost_of_rate), latency_slo)


class AdaptiveSliceRateController(SliceRateController):
    """Elastic controller that calibrates its latency model online.

    The paper's rule needs the full-width per-sample latency ``t``.  In
    production ``t`` drifts (thermal throttling, co-located load), so
    this controller refines its estimate from *observed* processing
    times via an exponentially weighted moving average: after a batch of
    ``n`` samples at rate ``r`` takes ``elapsed`` seconds, the implied
    full-width latency is ``elapsed / (n * r**2)``.
    """

    def __init__(self, rates, initial_latency: float, latency_slo: float,
                 smoothing: float = 0.3):
        super().__init__(rates, initial_latency, latency_slo)
        if not 0.0 < smoothing <= 1.0:
            raise ServingError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self.observations = 0

    def observe(self, batch_size: int, rate: float,
                elapsed: float) -> float:
        """Fold one observed batch into the latency estimate.

        Rescales the cost table to the new estimate and returns it (the
        full-width per-sample seconds).
        """
        if batch_size <= 0 or rate <= 0 or elapsed < 0:
            raise ServingError("invalid observation")
        implied = elapsed / (batch_size * rate * rate)
        self.full_latency = ((1 - self.smoothing) * self.full_latency
                             + self.smoothing * implied)
        self._set_costs(_rate_costs(self.rates, self.full_latency, None))
        self.observations += 1
        if obs.enabled():
            obs.gauge("controller_latency_estimate", self.full_latency)
        return self.full_latency


class FixedRateController(CostTableController):
    """Degenerate policy: always run at one rate (the baselines).

    A one-candidate table: ``cost_of_rate`` optionally calibrates its
    per-sample cost the same way as :class:`SliceRateController`.
    """

    policy = "fixed"

    def __init__(self, rate: float, full_latency_per_sample: float,
                 latency_slo: float,
                 cost_of_rate: Mapping[float, float] | None = None):
        if not 0 < rate <= 1:
            raise ServingError(f"rate must be in (0, 1], got {rate}")
        super().__init__(_rate_costs([rate], full_latency_per_sample,
                                     cost_of_rate), latency_slo)


class ProfileTableController(CostTableController):
    """The elastic policy generalized to explicit slice profiles.

    Candidates are :class:`~repro.slicing.profile.SliceProfile` objects
    (scalar rates coerce to uniform profiles) with *measured* per-sample
    costs — e.g. the budget-search winners from
    :func:`repro.slicing.budget.search_profile_for_budget` calibrated via
    :func:`repro.metrics.latency_table`.
    """

    policy = "profile-table"

    def __init__(self, cost_of_profile: Mapping, latency_slo: float):
        super().__init__({as_profile(p): c
                          for p, c in cost_of_profile.items()}, latency_slo)


class CascadeController(CostTableController):
    """Batch policy for confidence-cascade serving.

    Every batch *starts* at the cheapest cascade stage; widening happens
    per request inside the runtime's
    :class:`~repro.runtime.cascade.CascadeExecutor`, not here.  The
    controller's job is admission: budget the ``T/2`` window for the
    cascade's expected per-sample cost — the stage costs weighted by the
    fraction of requests expected to *reach* each stage (worst case 1.0
    everywhere: every request escalates to the top).

    ``cost_of_stage`` maps each stage rate to calibrated per-sample
    seconds; ``reach_fractions`` (optional, same length) are the
    planning-time escalation assumptions, which the runtime's measured
    ``cascade_escalations_total`` counters exist to calibrate.
    """

    policy = "cascade"

    def __init__(self, stage_rates: Sequence, cost_of_stage: Mapping,
                 latency_slo: float,
                 reach_fractions: Sequence[float] | None = None):
        stage_rates = list(stage_rates)
        if len(stage_rates) < 2:
            raise ServingError("a cascade needs at least two stages")
        costs = {}
        for rate in stage_rates:
            key = rate if rate in cost_of_stage else float(rate)
            if key not in cost_of_stage:
                raise ServingError(f"cost_of_stage lacks stage rate {rate}")
            costs[rate] = cost_of_stage[key]
        super().__init__(costs, latency_slo)
        if self.rates != stage_rates:
            raise ServingError("cascade stages must be cheapest-first")
        if reach_fractions is None:
            reach_fractions = [1.0] * len(stage_rates)
        self.reach_fractions = [float(f) for f in reach_fractions]
        if len(self.reach_fractions) != len(stage_rates):
            raise ServingError(
                f"{len(self.reach_fractions)} reach fractions for "
                f"{len(stage_rates)} stages")
        if self.reach_fractions[0] != 1.0 \
                or any(not 0.0 <= f <= 1.0 for f in self.reach_fractions):
            raise ServingError(
                "reach fractions must be in [0, 1] and start at 1.0")
        if any(b > a + 1e-12 for a, b in zip(self.reach_fractions,
                                             self.reach_fractions[1:])):
            raise ServingError("reach fractions must be non-increasing")

    def per_sample_cost(self, rate=None) -> float:
        """Expected cascade seconds per request (escalations included).

        With an explicit ``rate``, the calibrated cost of that single
        stage instead (the cluster layer prices stages individually).
        """
        if rate is not None:
            return super().per_sample_cost(rate)
        return sum(fraction * cost for fraction, (_, cost)
                   in zip(self.reach_fractions, self._entries))

    def _decide(self, batch_size: int):
        """Stage 0 if the expected cascade fits ``T/2``, else None."""
        cost = self.per_sample_cost()
        if batch_size * cost > self.latency_slo / 2.0:
            return None
        return self.floor, cost

    def downgrade(self, rate):
        """Retries re-enter at the cascade floor (already the cheapest)."""
        return self.floor

    def max_batch(self, rate=None) -> int:
        """Largest batch whose *expected* cascade fits the window."""
        return int(self.latency_slo / 2.0 / self.per_sample_cost())
