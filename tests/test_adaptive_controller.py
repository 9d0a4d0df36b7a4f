"""Unit tests for the adaptive (self-calibrating) serving controller."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import simulate_serving
from repro.serving.controller import AdaptiveSliceRateController

RATES = [0.25, 0.5, 0.75, 1.0]


class TestAdaptiveController:
    def test_behaves_like_elastic_before_observations(self):
        ctl = AdaptiveSliceRateController(RATES, 0.002, 0.1)
        assert ctl.choose(10) == 1.0
        assert ctl.choose(100) == 0.5

    def test_observation_moves_estimate_toward_truth(self):
        ctl = AdaptiveSliceRateController(RATES, 0.001, 0.1, smoothing=0.5)
        true_latency = 0.004
        for _ in range(20):
            # A batch of 10 at rate 0.5 with the true hardware speed.
            elapsed = 10 * 0.25 * true_latency
            ctl.observe(10, 0.5, elapsed)
        assert ctl.full_latency == pytest.approx(true_latency, rel=0.05)
        assert ctl.observations == 20

    def test_underestimate_corrects_choices(self):
        """Starting with a 4x-too-optimistic latency, the controller
        converges and stops over-promising wide subnets."""
        ctl = AdaptiveSliceRateController(RATES, 0.0005, 0.1, smoothing=0.5)
        optimistic = ctl.choose(100)
        true_latency = 0.002
        for _ in range(20):
            rate = ctl.choose(100) or 0.25
            ctl.observe(100, rate, 100 * rate * rate * true_latency)
        corrected = ctl.choose(100)
        assert corrected <= optimistic
        assert corrected == 0.5  # the rate the true latency admits

    def test_validation(self):
        with pytest.raises(ServingError):
            AdaptiveSliceRateController(RATES, 0.002, 0.1, smoothing=0.0)
        ctl = AdaptiveSliceRateController(RATES, 0.002, 0.1)
        with pytest.raises(ServingError):
            ctl.observe(0, 0.5, 0.1)
        with pytest.raises(ServingError):
            ctl.observe(4, 0.5, -1.0)

    def test_works_in_simulator(self):
        from repro.serving import constant_rate, generate_arrivals
        arrivals = generate_arrivals(constant_rate(200.0), 5.0,
                                     np.random.default_rng(0))
        ctl = AdaptiveSliceRateController(RATES, 0.002, 0.1)
        report = simulate_serving(arrivals, ctl, 0.002, 0.1,
                                  {r: 0.8 for r in RATES}, 5.0)
        assert report.slo_violations == 0
        assert report.drop_fraction == 0.0
