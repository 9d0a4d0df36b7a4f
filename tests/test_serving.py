"""Unit tests for workload generation, controllers and the serving simulator."""

import numpy as np
import pytest

from repro import obs
from repro.errors import BudgetError, ServingError
from repro.experiments.config import RATE_GRID_4, RATE_GRID_8
from repro.serving import (
    AdaptiveSliceRateController,
    CascadeController,
    FixedRateController,
    ProfileTableController,
    SliceRateController,
    constant_rate,
    diurnal_rate,
    generate_arrivals,
    peak_to_trough,
    simulate_serving,
    spike_rate,
)
from repro.slicing import rate_for_latency

RATES = [0.25, 0.5, 0.75, 1.0]
ACCURACY = {0.25: 0.7, 0.5: 0.8, 0.75: 0.85, 1.0: 0.9}


class TestWorkload:
    def test_diurnal_ratio(self):
        rate = diurnal_rate(10.0, 16.0, 60.0)
        assert peak_to_trough(rate, 60.0) == pytest.approx(16.0, rel=0.05)

    def test_diurnal_validation(self):
        with pytest.raises(ServingError):
            diurnal_rate(0.0, 16.0, 60.0)
        with pytest.raises(ServingError):
            diurnal_rate(10.0, 0.5, 60.0)

    def test_spike_applies_in_window(self):
        rate = spike_rate(constant_rate(10.0), [(5.0, 2.0, 3.0)])
        assert rate(6.0) == pytest.approx(30.0)
        assert rate(8.0) == pytest.approx(10.0)

    def test_constant_rate_validation(self):
        with pytest.raises(ServingError):
            constant_rate(0.0)

    def test_arrivals_sorted_and_bounded(self):
        arrivals = generate_arrivals(constant_rate(100.0), 2.0,
                                     np.random.default_rng(0))
        assert (np.diff(arrivals) >= 0).all()
        assert arrivals.min() >= 0 and arrivals.max() <= 2.1

    def test_arrival_count_matches_intensity(self):
        arrivals = generate_arrivals(constant_rate(100.0), 10.0,
                                     np.random.default_rng(0))
        assert 850 < len(arrivals) < 1150

    def test_duration_validated(self):
        with pytest.raises(ServingError):
            generate_arrivals(constant_rate(1.0), 0.0,
                              np.random.default_rng(0))


class TestControllers:
    def test_slice_controller_full_rate_when_light(self):
        ctl = SliceRateController(RATES, 0.002, 0.1)
        assert ctl.choose(10) == 1.0

    def test_slice_controller_degrades_under_load(self):
        ctl = SliceRateController(RATES, 0.002, 0.1)
        assert ctl.choose(100) == 0.5
        assert ctl.choose(399) == 0.25

    def test_slice_controller_overload_returns_none(self):
        ctl = SliceRateController(RATES, 0.002, 0.1)
        assert ctl.choose(10000) is None

    def test_empty_batch(self):
        assert SliceRateController(RATES, 0.002, 0.1).choose(0) is None

    def test_max_batch_quadratic(self):
        ctl = SliceRateController(RATES, 0.002, 0.1)
        assert ctl.max_batch(0.5) == 4 * ctl.max_batch(1.0)

    def test_fixed_controller_accepts_until_capacity(self):
        ctl = FixedRateController(1.0, 0.002, 0.1)
        assert ctl.choose(25) == 1.0
        assert ctl.choose(26) is None

    def test_fixed_controller_validation(self):
        with pytest.raises(ServingError):
            FixedRateController(1.5, 0.002, 0.1)
        with pytest.raises(ServingError):
            SliceRateController(RATES, -1.0, 0.1)


def _oracle(batch_size, full_latency, slo, rates):
    """The paper's quadratic rule as :mod:`repro.slicing.budget` states it."""
    try:
        return rate_for_latency(batch_size, full_latency, slo, rates)
    except BudgetError:
        return None


ORACLE_GRIDS = [RATE_GRID_8, RATE_GRID_4, [0.25, 0.5, 0.75, 1.0],
                [0.25, 0.5, 1.0]]


class TestReferenceOracle:
    """The cost-table rule over ``t * r * r`` is ``rate_for_latency``."""

    @pytest.mark.parametrize("rates", ORACLE_GRIDS)
    def test_elastic_matches_rate_for_latency(self, rates):
        for t in (0.0005, 0.001, 0.002, 0.003):
            for slo in (0.05, 0.1, 0.2):
                ctl = SliceRateController(rates, t, slo)
                for n in range(1, 5000):
                    assert ctl.choose(n) == _oracle(n, t, slo, rates), \
                        (rates, t, slo, n)

    @pytest.mark.parametrize("rates", ORACLE_GRIDS)
    def test_adaptive_matches_after_observe(self, rates):
        ctl = AdaptiveSliceRateController(rates, 0.0005, 0.1, smoothing=0.5)
        for elapsed in (0.01, 0.04, 0.02):
            t = ctl.observe(10, 0.5, elapsed)
            for n in range(1, 5000):
                assert ctl.choose(n) == _oracle(n, t, 0.1, rates), (t, n)


def _protocol_controllers():
    costs = {0.25: 0.0006, 0.5: 0.001, 0.75: 0.0013, 1.0: 0.002}
    return {
        "elastic": SliceRateController(RATES, 0.002, 0.1),
        "elastic-calibrated": SliceRateController(
            RATES, 0.002, 0.1, cost_of_rate=costs),
        "adaptive": AdaptiveSliceRateController(RATES, 0.002, 0.1),
        "fixed": FixedRateController(0.5, 0.002, 0.1),
        # Cost order differs from rate order: 0.75 is the cheapest.
        "profile-table": ProfileTableController(
            {0.75: 1e-3, 0.5: 1.5e-3, 1.0: 2e-3}, 0.1),
        "cascade": CascadeController(
            [0.25, 0.5, 1.0], {0.25: 1e-4, 0.5: 4e-4, 1.0: 1.6e-3}, 0.1),
    }


class TestControllerProtocol:
    """``rates``/``floor``/``downgrade``/``max_batch`` for every policy."""

    @pytest.mark.parametrize("name", sorted(_protocol_controllers()))
    def test_rates_cheapest_first_from_floor(self, name):
        ctl = _protocol_controllers()[name]
        costs = [ctl.per_sample_cost(r) for r in ctl.rates]
        assert costs == sorted(costs)
        assert ctl.floor == ctl.rates[0]

    @pytest.mark.parametrize("name", sorted(_protocol_controllers()))
    def test_downgrade_steps_to_the_floor(self, name):
        ctl = _protocol_controllers()[name]
        assert ctl.downgrade(ctl.floor) == ctl.floor
        for cheaper, wider in zip(ctl.rates, ctl.rates[1:]):
            expected = ctl.floor if name == "cascade" else cheaper
            assert ctl.downgrade(wider) == expected

    @pytest.mark.parametrize("name", sorted(_protocol_controllers()))
    def test_max_batch_at_floor_is_the_admission_edge(self, name):
        ctl = _protocol_controllers()[name]
        capacity = ctl.max_batch(ctl.floor)
        assert ctl.choose(capacity) is not None
        assert ctl.choose(capacity + 1) is None

    def test_profile_table_ranks_by_cost_not_rate(self):
        ctl = _protocol_controllers()["profile-table"]
        assert [float(r) for r in ctl.rates] == [0.75, 0.5, 1.0]
        assert ctl.choose(50) == 0.75
        assert ctl.max_batch(ctl.floor) == 50

    def test_decision_cost_is_the_quadratic_product(self):
        _, tracer = obs.configure()
        try:
            SliceRateController(RATES, 0.003, 0.1).choose(40)
            FixedRateController(0.75, 0.003, 0.1).choose(7)
            costs = [r["attrs"]["cost"] for r in tracer.records
                     if r.get("name") == "controller.decision"]
        finally:
            obs.shutdown(write_metrics=False)
        assert costs == [40 * (0.003 * 0.5 * 0.5), 7 * (0.003 * 0.75 * 0.75)]


class TestSimulator:
    def arrivals(self, rate, duration=10.0, seed=0):
        return generate_arrivals(constant_rate(rate), duration,
                                 np.random.default_rng(seed))

    def test_elastic_policy_never_violates_slo(self):
        arrivals = self.arrivals(300.0)
        ctl = SliceRateController(RATES, 0.002, 0.1)
        report = simulate_serving(arrivals, ctl, 0.002, 0.1, ACCURACY, 10.0)
        assert report.slo_violations == 0
        assert report.drop_fraction == 0.0

    def test_elastic_policy_slices_down_under_load(self):
        light = simulate_serving(self.arrivals(50.0),
                                 SliceRateController(RATES, 0.002, 0.1),
                                 0.002, 0.1, ACCURACY, 10.0)
        heavy = simulate_serving(self.arrivals(2000.0),
                                 SliceRateController(RATES, 0.002, 0.1),
                                 0.002, 0.1, ACCURACY, 10.0)
        assert heavy.mean_rate < light.mean_rate

    def test_fixed_full_drops_under_load(self):
        arrivals = self.arrivals(2000.0)
        ctl = FixedRateController(1.0, 0.002, 0.1)
        report = simulate_serving(arrivals, ctl, 0.002, 0.1, ACCURACY, 10.0)
        assert report.drop_fraction > 0.5

    def test_fixed_small_lower_accuracy_offpeak(self):
        arrivals = self.arrivals(50.0)
        small = simulate_serving(arrivals,
                                 FixedRateController(0.25, 0.002, 0.1),
                                 0.002, 0.1, ACCURACY, 10.0)
        elastic = simulate_serving(arrivals,
                                   SliceRateController(RATES, 0.002, 0.1),
                                   0.002, 0.1, ACCURACY, 10.0)
        assert elastic.mean_accuracy > small.mean_accuracy

    @pytest.mark.parametrize("controller", [
        SliceRateController(RATES, 0.002, 0.1),
        FixedRateController(0.25, 0.002, 0.1),
    ], ids=["elastic", "fixed"])
    def test_overload_sheds_to_floor_capacity(self, controller):
        # 450 arrivals in one 50 ms window; 400 fit at rate 0.25.
        arrivals = np.full(450, 0.01)
        report = simulate_serving(arrivals, controller, 0.002, 0.1,
                                  ACCURACY, 0.05)
        window = report.windows[0]
        assert (window.admitted, window.dropped, window.rate) \
            == (400, 50, 0.25)
        assert window.slo_met

    def test_report_accounting_consistent(self):
        arrivals = self.arrivals(300.0)
        ctl = SliceRateController(RATES, 0.002, 0.1)
        report = simulate_serving(arrivals, ctl, 0.002, 0.1, ACCURACY, 10.0)
        assert report.total_arrivals == len(arrivals)
        admitted = sum(w.admitted for w in report.windows)
        assert admitted + report.total_dropped == report.total_arrivals

    def test_utilization_bounded(self):
        arrivals = self.arrivals(300.0)
        ctl = SliceRateController(RATES, 0.002, 0.1)
        report = simulate_serving(arrivals, ctl, 0.002, 0.1, ACCURACY, 10.0)
        assert 0.0 < report.utilization(0.05) <= 1.0

    def test_empty_windows_handled(self):
        report = simulate_serving(np.empty(0),
                                  SliceRateController(RATES, 0.002, 0.1),
                                  0.002, 0.1, ACCURACY, 1.0)
        assert report.total_arrivals == 0
        assert report.mean_accuracy == 0.0

    def test_invalid_slo_raises(self):
        with pytest.raises(ServingError):
            simulate_serving(np.empty(0),
                             SliceRateController(RATES, 0.002, 0.1),
                             0.002, 0.0, ACCURACY, 1.0)


class TestCalibratedControllers:
    """Controllers planning with a measured per-rate cost table."""

    # A realistic measured curve: flatter than quadratic at narrow rates.
    COSTS = {0.25: 0.0006, 0.5: 0.001, 0.75: 0.0013, 1.0: 0.002}

    def test_quadratic_model_is_default(self):
        ctl = SliceRateController(RATES, 0.002, 0.1)
        assert ctl.per_sample_cost(0.5) == pytest.approx(0.002 * 0.25)

    def test_calibrated_cost_overrides_quadratic(self):
        ctl = SliceRateController(RATES, 0.002, 0.1, cost_of_rate=self.COSTS)
        assert ctl.per_sample_cost(0.5) == pytest.approx(0.001)
        # A rate outside the candidates has no cost.
        with pytest.raises(ServingError):
            ctl.per_sample_cost(0.6)

    def test_calibrated_choose_uses_real_curve(self):
        ctl = SliceRateController(RATES, 0.002, 0.1, cost_of_rate=self.COSTS)
        # Window is 50ms; at batch 40 the full width fits (40*2ms=80ms no,
        # > 50ms) so it degrades to 0.75 (40*1.3ms = 52ms no) -> 0.5.
        assert ctl.choose(25) == 1.0
        assert ctl.choose(40) == 0.5
        # Quadratic model would still allow 0.25 at batch 500; measured
        # curve says only up to 83.
        assert ctl.choose(500) is None

    def test_calibrated_max_batch(self):
        ctl = SliceRateController(RATES, 0.002, 0.1, cost_of_rate=self.COSTS)
        assert ctl.max_batch(0.25) == int(0.05 / 0.0006)

    def test_missing_candidate_rate_rejected(self):
        with pytest.raises(ServingError):
            SliceRateController(RATES, 0.002, 0.1,
                                cost_of_rate={0.25: 0.001, 1.0: 0.002})

    def test_nonpositive_cost_rejected(self):
        costs = {**self.COSTS, 0.5: 0.0}
        with pytest.raises(ServingError):
            SliceRateController(RATES, 0.002, 0.1, cost_of_rate=costs)

    def test_fixed_controller_calibrated(self):
        ctl = FixedRateController(0.25, 0.002, 0.1,
                                  cost_of_rate=self.COSTS)
        assert ctl.choose(83) == 0.25       # 83 * 0.6ms = 49.8ms <= 50ms
        assert ctl.choose(84) is None
        # Quadratic baseline would have admitted 400.
        assert FixedRateController(0.25, 0.002, 0.1).choose(84) == 0.25


class TestReportExport:
    def report(self):
        arrivals = generate_arrivals(constant_rate(300.0), 10.0,
                                     np.random.default_rng(0))
        ctl = SliceRateController(RATES, 0.002, 0.1)
        return simulate_serving(arrivals, ctl, 0.002, 0.1, ACCURACY, 10.0)

    def test_to_dict_summary_fields(self):
        report = self.report()
        summary = report.to_dict(include_windows=False)
        assert summary["total_arrivals"] == report.total_arrivals
        assert summary["drop_fraction"] == report.drop_fraction
        assert summary["mean_accuracy"] == report.mean_accuracy
        assert set(summary["processing_time"]) == {"p50", "p95", "p99"}
        assert "windows" not in summary

    def test_to_dict_windows_roundtrip(self):
        report = self.report()
        summary = report.to_dict()
        assert len(summary["windows"]) == len(report.windows)
        first = summary["windows"][0]
        assert first == report.windows[0].to_dict()

    def test_to_json_parses(self):
        import json
        report = self.report()
        parsed = json.loads(report.to_json())
        assert parsed["total_arrivals"] == report.total_arrivals
        assert isinstance(parsed["windows"], list)

    def test_percentiles_ordered(self):
        stats = self.report().to_dict(include_windows=False)
        tails = stats["processing_time"]
        assert tails["p50"] <= tails["p95"] <= tails["p99"]
