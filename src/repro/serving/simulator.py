"""Discrete-window serving simulator (the Sec. 4.1 example application).

Time is divided into ``T/2`` windows.  Arrivals landing in window ``k``
form the batch processed during window ``k+1``.  A controller picks the
slice rate per batch; when even its cheapest candidate cannot fit the
whole batch, the samples beyond that capacity are shed (for a fixed-rate
controller, the paper's coarse degradation).  The simulator accounts, per
window: admitted/dropped samples, chosen rate, realized processing time,
SLO violations, and the accuracy implied by the chosen rate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ServingError


@dataclass
class WindowStats:
    """Telemetry of one processing window."""

    start: float
    arrivals: int
    admitted: int
    dropped: int
    rate: float | None
    processing_time: float
    slo_met: bool
    expected_accuracy: float

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["rate"] is not None \
                and not isinstance(data["rate"], (int, float)):
            data["rate"] = format(data["rate"])  # profile -> short label
        return data


@dataclass
class ServingReport:
    """Aggregate results of a serving simulation."""

    windows: list[WindowStats] = field(default_factory=list)

    @property
    def total_arrivals(self) -> int:
        return sum(w.arrivals for w in self.windows)

    @property
    def total_dropped(self) -> int:
        return sum(w.dropped for w in self.windows)

    @property
    def drop_fraction(self) -> float:
        total = self.total_arrivals
        return self.total_dropped / total if total else 0.0

    @property
    def slo_violations(self) -> int:
        return sum(1 for w in self.windows if not w.slo_met)

    @property
    def mean_accuracy(self) -> float:
        """Admitted-sample-weighted expected accuracy (dropped count as 0)."""
        total = self.total_arrivals
        if not total:
            return 0.0
        gained = sum(w.admitted * w.expected_accuracy for w in self.windows)
        return gained / total

    @property
    def mean_rate(self) -> float:
        rates = [float(w.rate) for w in self.windows if w.rate is not None]
        return float(np.mean(rates)) if rates else 0.0

    def utilization(self, window_length: float) -> float:
        """Fraction of each processing window actually spent computing."""
        if not self.windows:
            return 0.0
        busy = sum(w.processing_time for w in self.windows)
        return busy / (len(self.windows) * window_length)

    def to_dict(self, include_windows: bool = True) -> dict:
        """Machine-readable summary (same aggregation as the runtime's).

        Reuses the shared percentile helper from
        :mod:`repro.runtime.telemetry` (imported lazily: the runtime
        builds *on* the serving layer) so both pipelines report latency
        statistics identically.
        """
        from ..runtime.telemetry import percentiles

        summary = {
            "total_arrivals": self.total_arrivals,
            "total_dropped": self.total_dropped,
            "drop_fraction": self.drop_fraction,
            "slo_violations": self.slo_violations,
            "mean_accuracy": self.mean_accuracy,
            "mean_rate": self.mean_rate,
            "processing_time": percentiles(
                w.processing_time for w in self.windows if w.arrivals),
        }
        if include_windows:
            summary["windows"] = [w.to_dict() for w in self.windows]
        return summary

    def to_json(self, include_windows: bool = True, indent: int = 1) -> str:
        return json.dumps(self.to_dict(include_windows=include_windows),
                          indent=indent)


def simulate_serving(arrivals: np.ndarray, controller,
                     full_latency_per_sample: float, latency_slo: float,
                     accuracy_of_rate: Mapping[float, float],
                     duration: float) -> ServingReport:
    """Run the window simulation.

    Parameters
    ----------
    arrivals:
        Sorted arrival timestamps.
    controller:
        A :class:`~repro.serving.controller.CostTableController`.  A
        ``None`` from ``choose`` makes the simulator shed samples down to
        ``max_batch(floor)``, the capacity at the cheapest candidate (the
        runtime batcher's rule), or drop the batch entirely if even one
        sample cannot be served.
    accuracy_of_rate:
        Measured accuracy of the deployed model at each candidate rate
        (from a trained model's evaluation).
    """
    if latency_slo <= 0:
        raise ServingError("latency_slo must be positive")
    window = latency_slo / 2.0
    report = ServingReport()
    edges = np.arange(0.0, duration + window, window)
    counts, _ = np.histogram(arrivals, bins=edges)
    for k, n in enumerate(counts):
        n = int(n)
        rate = controller.choose(n)
        if n == 0:
            report.windows.append(WindowStats(
                start=float(edges[k]), arrivals=0, admitted=0, dropped=0,
                rate=None, processing_time=0.0, slo_met=True,
                expected_accuracy=0.0,
            ))
            continue
        if rate is None:
            # Shed load down to the controller's capacity at its floor.
            admitted = min(n, controller.max_batch(controller.floor))
            rate = controller.choose(admitted) if admitted else None
            dropped = n - admitted
        else:
            admitted, dropped = n, 0
        if rate is None:
            processing = 0.0
            accuracy = 0.0
            admitted = 0
            dropped = n
        else:
            processing = admitted * float(rate) ** 2 * full_latency_per_sample
            accuracy = accuracy_for_rate(accuracy_of_rate, rate)
        report.windows.append(WindowStats(
            start=float(edges[k]), arrivals=n, admitted=admitted,
            dropped=dropped, rate=rate, processing_time=processing,
            slo_met=processing <= window + 1e-9,
            expected_accuracy=accuracy,
        ))
    return report


def accuracy_for_rate(table: Mapping, rate) -> float:
    """Accuracy of the nearest measured rate (shared with the runtime).

    ``rate`` and the table keys may be scalars or slice profiles: an
    exact match (by value for scalars and uniform profiles, by
    fingerprint for non-uniform ones) wins, otherwise the nearest key by
    mean rate.
    """
    if rate in table:
        return table[rate]
    best = min(table, key=lambda r: abs(float(r) - float(rate)))
    return table[best]


def measured_accuracy_table(model, inputs, labels, rates,
                            plan_cache=None) -> dict:
    """Accuracy-of-rate table from real evaluation through cached plans.

    Evaluates ``model`` on ``(inputs, labels)`` at every rate via
    :mod:`repro.slicing.plans` (compiled once per rate, reused across
    calls through ``plan_cache`` — the shared cache by default), giving
    the controllers a measured table instead of an assumed one.

    ``rates`` may mix scalars and slice profiles; duplicates (by
    canonical fingerprint) collapse.  Uniform entries keep plain float
    keys so existing scalar-keyed consumers are unaffected; non-uniform
    profiles key by the profile object itself.
    """
    from ..slicing.plans import shared_cache
    from ..slicing.profile import as_profile

    cache = plan_cache if plan_cache is not None else shared_cache()
    labels = np.asarray(labels)
    unique = {as_profile(r).fingerprint(): as_profile(r) for r in rates}
    table: dict = {}
    for profile in sorted(unique.values(),
                          key=lambda p: (float(p), p.fingerprint())):
        predictions = np.argmax(cache.get(model, profile).run(inputs),
                                axis=-1)
        key = float(profile) if profile.uniform else profile
        table[key] = float((predictions == labels).mean())
    return table
