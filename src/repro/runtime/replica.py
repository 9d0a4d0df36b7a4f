"""A serving replica: calibrated latency plus (optionally) a real model.

Each replica advances the simulated clock with a *calibrated* latency
model — per-sample service time per slice rate, ideally the measured
p95 from :func:`repro.metrics.latency_table` — while optionally
executing a *real* sliced model (or per-rate
:func:`~repro.slicing.deploy.materialize_subnet` artifacts) on the
request payloads, so the runtime produces genuine predictions without
wall-clock noise leaking into the (deterministic) telemetry.

Fault state lives on the replica: crashes, slowdown windows, and
transient-timeout windows set by :mod:`repro.runtime.faults` change how
dispatches resolve, and the token counter invalidates in-flight work
when a crash lands mid-batch.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..errors import ServingError
from ..slicing.context import slice_profile, validate_rate
from ..slicing.plans import PlanCache, shared_cache
from ..slicing.profile import SliceProfile, as_profile
from ..tensor import Tensor, no_grad

STATE_HEALTHY = "healthy"
STATE_CRASHED = "crashed"


class LatencyProfile:
    """Per-sample service time as a function of the slice rate.

    Built either from a single full-width per-sample latency ``t`` (the
    paper's quadratic model ``t * r**2``) or from measured per-rate
    values — e.g. the p95 column of :func:`repro.metrics.latency_table`.
    """

    def __init__(self, full_per_sample: float | None = None,
                 per_rate: Mapping | None = None):
        if full_per_sample is None and not per_rate:
            raise ServingError(
                "LatencyProfile needs full_per_sample and/or per_rate")
        if full_per_sample is not None and full_per_sample <= 0:
            raise ServingError("full_per_sample must be positive")
        self.full_per_sample = full_per_sample
        # Uniform rates (floats or uniform profiles) calibrate the
        # scalar curve; non-uniform profiles get exact-match entries
        # keyed by fingerprint.
        self.per_rate: dict[float, float] = {}
        self.per_profile: dict[str, float] = {}
        for key, value in (per_rate or {}).items():
            value = float(value)
            if value <= 0:
                raise ServingError(
                    f"per-sample latency at rate {key} must be positive")
            if isinstance(key, SliceProfile) and not key.uniform:
                self.per_profile[key.fingerprint()] = value
            else:
                self.per_rate[validate_rate(float(key))] = value

    def per_sample(self, rate) -> float:
        """Calibrated per-sample seconds at ``rate`` (rate or profile).

        Exact per-rate measurements win; otherwise the nearest measured
        rate is scaled quadratically; with no measurements at all the
        analytic ``t * r**2`` model applies.  Non-uniform profiles match
        their own calibration entry exactly, falling back to the scalar
        curve at their mean rate.
        """
        if isinstance(rate, SliceProfile) and not rate.uniform:
            exact = self.per_profile.get(rate.fingerprint())
            if exact is not None:
                return exact
            rate = float(rate)
        rate = validate_rate(float(rate))
        if rate in self.per_rate:
            return self.per_rate[rate]
        if self.per_rate:
            nearest = min(self.per_rate, key=lambda r: abs(r - rate))
            return self.per_rate[nearest] * (rate / nearest) ** 2
        return self.full_per_sample * rate * rate

    @classmethod
    def from_latency_table(cls, table: Mapping[float, Mapping[str, float]],
                           percentile: str = "p95") -> "LatencyProfile":
        """Calibrate from :func:`repro.metrics.latency_table` output.

        Uses the requested percentile column (p50/p95/p99) divided by the
        measured batch size; falls back to the median ``latency`` column
        for tables produced before percentiles existed.
        """
        per_rate = {}
        for rate, entry in table.items():
            total = entry.get(percentile, entry["latency"])
            samples = entry.get("samples", 1.0)
            per_rate[rate] = total / samples
        return cls(per_rate=per_rate)


class Replica:
    """One server in the pool, with its own calibration and fault state."""

    def __init__(self, replica_id: str, profile: LatencyProfile,
                 model=None, artifacts: Mapping[float, object] | None = None,
                 use_plans: bool = True, plan_cache: PlanCache | None = None):
        self.replica_id = str(replica_id)
        self.profile = profile
        self.model = model
        self.artifacts = dict(artifacts or {})
        self.use_plans = bool(use_plans)
        self.plan_cache = plan_cache
        self.state = STATE_HEALTHY
        self.busy_until = 0.0
        self.slowdown_factor = 1.0
        self.slowdown_until = 0.0
        self.timeout_until = 0.0
        # Monotone token identifying the current dispatch; a completion
        # event whose token no longer matches is stale (crash landed
        # in-flight) and must be ignored.
        self.token = 0

    # -- fault state ----------------------------------------------------
    @property
    def crashed(self) -> bool:
        return self.state == STATE_CRASHED

    def crash(self) -> None:
        self.state = STATE_CRASHED

    def slow_down(self, factor: float, until: float) -> None:
        if factor < 1.0:
            raise ServingError(f"slowdown factor must be >= 1, got {factor}")
        self.slowdown_factor = factor
        self.slowdown_until = until

    def timeout_window(self, until: float) -> None:
        self.timeout_until = until

    def timing_out(self, now: float) -> bool:
        return now < self.timeout_until - 1e-12

    # -- timing ---------------------------------------------------------
    def service_time(self, batch_size: int, rate: float, now: float) -> float:
        """Calibrated wall time to execute ``batch_size`` samples at ``rate``."""
        if batch_size < 1:
            raise ServingError("batch_size must be >= 1")
        base = batch_size * self.profile.per_sample(rate)
        return self.scaled_time(base, now)

    def scaled_time(self, seconds: float, now: float) -> float:
        """Apply any active slowdown window to a pre-computed duration.

        Cascade dispatches compute their own base time (per-stage rows
        times per-stage calibrated cost) but still slow down with the
        replica they run on.
        """
        if now < self.slowdown_until - 1e-12:
            return seconds * self.slowdown_factor
        return seconds

    def begin(self, until: float) -> int:
        """Mark the replica busy until ``until``; returns the dispatch token."""
        self.token += 1
        self.busy_until = until
        return self.token

    def invalidate(self, now: float) -> None:
        """Abort in-flight work (crash landed mid-batch)."""
        self.token += 1
        self.busy_until = now

    # -- real execution -------------------------------------------------
    def _cache(self) -> PlanCache:
        return self.plan_cache if self.plan_cache is not None \
            else shared_cache()

    def warm_plans(self, rates) -> int:
        """Pre-compile inference plans for ``rates``; returns plans ensured.

        Rates already covered by a materialized artifact are skipped —
        artifacts win over plans in :meth:`predict`.
        """
        if self.model is None:
            return 0
        warmed = 0
        for rate in rates:
            profile = as_profile(rate)
            if profile in self.artifacts:
                continue
            self._cache().get(self.model, profile)
            warmed += 1
        return warmed

    def predict(self, inputs: np.ndarray, rate) -> np.ndarray | None:
        """Class predictions for ``inputs`` at ``rate`` (None if no model).

        ``rate`` may be a scalar or a slice profile.  Prefers a
        materialized per-rate artifact (a deployed standalone subnet);
        otherwise serves through the compiled inference plan for
        ``(model, rate)`` (see :mod:`repro.slicing.plans`), falling back
        to the uncompiled sliced forward when ``use_plans=False``.
        """
        profile = as_profile(rate)
        if profile in self.artifacts:
            batch = Tensor(np.asarray(inputs, dtype=np.float32))
            with no_grad():
                logits = self.artifacts[profile](batch).data
        elif self.model is None:
            return None
        elif self.use_plans:
            plan = self._cache().get(self.model, profile)
            logits = plan.run(np.asarray(inputs))
        else:
            batch = Tensor(np.asarray(inputs, dtype=np.float32))
            with no_grad(), slice_profile(profile):
                logits = self.model(batch).data
        return np.argmax(logits, axis=-1)
