"""Unit tests for the runtime's building blocks.

Covers the admission queue (bounds, policies, deadlines, backpressure),
the dynamic batcher (size/timeout closing, rate selection, retry caps),
latency profiles and replicas, pool dispatch, and fault plans.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.runtime import (
    AdmissionQueue,
    DynamicBatcher,
    FaultEvent,
    FaultPlan,
    LatencyProfile,
    Replica,
    ReplicaPool,
    RequestTrace,
)
from repro.serving import (
    FixedRateController,
    ProfileTableController,
    SliceRateController,
)

RATES = [0.25, 0.5, 0.75, 1.0]


def request(i, arrival=0.0, deadline=10.0, cap=None):
    return RequestTrace(request_id=i, arrival=arrival, deadline=deadline,
                        rate_cap=cap)


def elastic(full_latency=0.002, slo=0.1):
    return SliceRateController(RATES, full_latency, slo)


class TestAdmissionQueue:
    def test_fifo_by_arrival(self):
        q = AdmissionQueue(capacity=4)
        q.offer(request(1, arrival=1.0), now=1.0)
        q.offer(request(0, arrival=0.5), now=1.0)
        taken, _ = q.pop(2, now=1.0)
        assert [r.request_id for r in taken] == [0, 1]

    def test_reject_policy_bounces_new(self):
        q = AdmissionQueue(capacity=1, policy="reject")
        assert q.offer(request(0), now=0.0) == (True, [])
        admitted, shed = q.offer(request(1), now=0.0)
        assert not admitted and shed == []
        assert q.depth == 1

    def test_shed_oldest_policy_evicts_head(self):
        q = AdmissionQueue(capacity=1, policy="shed-oldest")
        q.offer(request(0, arrival=0.0), now=0.0)
        admitted, shed = q.offer(request(1, arrival=1.0), now=1.0)
        assert admitted
        assert [r.request_id for r in shed] == [0]

    def test_offer_past_deadline_refused(self):
        q = AdmissionQueue(capacity=4)
        admitted, shed = q.offer(request(0, deadline=1.0), now=2.0)
        assert not admitted and shed == []

    def test_expire_removes_dead_requests(self):
        q = AdmissionQueue(capacity=4)
        q.offer(request(0, deadline=1.0), now=0.0)
        q.offer(request(1, deadline=5.0), now=0.0)
        expired = q.expire(now=2.0)
        assert [r.request_id for r in expired] == [0]
        assert q.depth == 1

    def test_pop_skims_expired(self):
        q = AdmissionQueue(capacity=4)
        q.offer(request(0, arrival=0.0, deadline=1.0), now=0.0)
        q.offer(request(1, arrival=0.5, deadline=5.0), now=0.5)
        taken, expired = q.pop(2, now=2.0)
        assert [r.request_id for r in taken] == [1]
        assert [r.request_id for r in expired] == [0]

    def test_backpressure_and_oldest_wait(self):
        q = AdmissionQueue(capacity=4)
        assert q.backpressure == 0.0
        q.offer(request(0), now=1.0)
        q.offer(request(1), now=2.0)
        assert q.backpressure == pytest.approx(0.5)
        assert q.oldest_wait(3.0) == pytest.approx(2.0)

    def test_retry_reenters_at_front(self):
        q = AdmissionQueue(capacity=4)
        q.offer(request(5, arrival=5.0), now=5.0)
        retry = request(0, arrival=0.0)
        q.offer(retry, now=6.0)  # re-admission after a failed attempt
        taken, _ = q.pop(1, now=6.0)
        assert taken[0].request_id == 0

    def test_validation(self):
        with pytest.raises(ServingError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ServingError):
            AdmissionQueue(capacity=4, policy="lifo")


class TestDynamicBatcher:
    def queue_with(self, n, now=0.0, deadline=10.0):
        q = AdmissionQueue(capacity=max(n, 1) + 8)
        for i in range(n):
            q.offer(request(i, arrival=now, deadline=deadline), now=now)
        return q

    def test_ready_on_size(self):
        b = DynamicBatcher(elastic(), max_batch_size=4, timeout=1.0)
        assert not b.ready(self.queue_with(3), now=0.0)
        assert b.ready(self.queue_with(4), now=0.0)

    def test_ready_on_timeout(self):
        b = DynamicBatcher(elastic(), max_batch_size=4, timeout=1.0)
        q = self.queue_with(1, now=0.0)
        assert not b.ready(q, now=0.5)
        assert b.ready(q, now=1.0)

    def test_zero_timeout_batches_immediately(self):
        b = DynamicBatcher(elastic(), max_batch_size=64, timeout=0.0)
        assert b.ready(self.queue_with(1), now=0.0)

    def test_form_picks_elastic_rate(self):
        b = DynamicBatcher(elastic(), max_batch_size=10, timeout=0.0)
        batch, _ = b.form(self.queue_with(10), now=0.0)
        # 10 * r^2 * 0.002 <= 0.05 admits the full width.
        assert batch.rate == 1.0
        assert len(batch) == 10
        assert all(r.batched == 0.0 for r in batch.requests)

    def test_form_degrades_under_load(self):
        b = DynamicBatcher(elastic(), max_batch_size=100, timeout=0.0)
        batch, _ = b.form(self.queue_with(100), now=0.0)
        assert batch.rate == 0.5

    def test_overload_shrinks_batch_and_requeues(self):
        # 500 > max_batch(0.25) = 400: the batch shrinks, leftovers wait.
        b = DynamicBatcher(elastic(), max_batch_size=500, timeout=0.0)
        q = self.queue_with(500)
        batch, _ = b.form(q, now=0.0)
        assert len(batch) == 400
        assert batch.rate == 0.25
        assert q.depth == 100

    def test_rate_cap_downgrades_whole_batch(self):
        b = DynamicBatcher(elastic(), max_batch_size=4, timeout=0.0)
        q = AdmissionQueue(capacity=8)
        q.offer(request(0, cap=0.5), now=0.0)
        q.offer(request(1), now=0.0)
        batch, _ = b.form(q, now=0.0)
        assert batch.rate == 0.5

    def test_fixed_controller_shrinks_to_capacity(self):
        fixed = FixedRateController(1.0, 0.002, 0.1)  # max_batch = 25
        b = DynamicBatcher(fixed, max_batch_size=40, timeout=0.0)
        q = self.queue_with(40)
        batch, _ = b.form(q, now=0.0)
        assert len(batch) == 25
        assert batch.rate == 1.0
        assert q.depth == 15

    def test_overload_sheds_to_cheapest_candidate(self):
        # 0.75 is cheaper than 0.5 here, so the floor serves 50, not 33.
        table = ProfileTableController({0.75: 1e-3, 0.5: 1.5e-3, 1.0: 2e-3},
                                       0.1)
        b = DynamicBatcher(table, max_batch_size=60, timeout=0.0)
        q = self.queue_with(60)
        batch, _ = b.form(q, now=0.0)
        assert len(batch) == 50
        assert batch.rate == 0.75
        assert q.depth == 10

    def test_infeasible_controller_rejected(self):
        hopeless = FixedRateController(1.0, 1.0, 0.1)  # 1 sample needs 1s
        with pytest.raises(ServingError):
            DynamicBatcher(hopeless, max_batch_size=4)

    def test_validation(self):
        with pytest.raises(ServingError):
            DynamicBatcher(elastic(), max_batch_size=0)
        with pytest.raises(ServingError):
            DynamicBatcher(elastic(), max_batch_size=4, timeout=-1.0)


class TestLatencyProfile:
    def test_quadratic_fallback(self):
        profile = LatencyProfile(full_per_sample=0.004)
        assert profile.per_sample(1.0) == pytest.approx(0.004)
        assert profile.per_sample(0.5) == pytest.approx(0.001)

    def test_measured_rates_win(self):
        profile = LatencyProfile(per_rate={1.0: 0.004, 0.5: 0.0015})
        assert profile.per_sample(0.5) == pytest.approx(0.0015)

    def test_unmeasured_rate_scales_from_nearest(self):
        profile = LatencyProfile(per_rate={0.5: 0.002})
        assert profile.per_sample(0.25) == pytest.approx(0.002 * 0.25)

    def test_from_latency_table_uses_percentile(self):
        table = {1.0: {"latency": 0.4, "p95": 0.48, "samples": 100.0},
                 0.5: {"latency": 0.1, "p95": 0.12, "samples": 100.0}}
        profile = LatencyProfile.from_latency_table(table, percentile="p95")
        assert profile.per_sample(1.0) == pytest.approx(0.0048)
        assert profile.per_sample(0.5) == pytest.approx(0.0012)

    def test_validation(self):
        with pytest.raises(ServingError):
            LatencyProfile()
        with pytest.raises(ServingError):
            LatencyProfile(full_per_sample=-1.0)
        with pytest.raises(ServingError):
            LatencyProfile(per_rate={0.5: 0.0})


class TestReplica:
    def test_service_time_scales_with_rate_and_size(self):
        replica = Replica("r0", LatencyProfile(0.002))
        full = replica.service_time(10, 1.0, now=0.0)
        half = replica.service_time(10, 0.5, now=0.0)
        assert full == pytest.approx(0.02)
        assert half == pytest.approx(full / 4)

    def test_slowdown_window(self):
        replica = Replica("r0", LatencyProfile(0.002))
        replica.slow_down(3.0, until=5.0)
        assert replica.service_time(10, 1.0, now=1.0) == pytest.approx(0.06)
        assert replica.service_time(10, 1.0, now=6.0) == pytest.approx(0.02)

    def test_begin_and_invalidate_bump_token(self):
        replica = Replica("r0", LatencyProfile(0.002))
        token = replica.begin(until=1.0)
        assert replica.busy_until == 1.0
        replica.invalidate(now=0.5)
        assert replica.token != token
        assert replica.busy_until == 0.5

    def test_predict_with_real_model(self, rng):
        from repro.models import MLP
        model = MLP(8, [16], 3, seed=0)
        replica = Replica("r0", LatencyProfile(0.002), model=model)
        preds = replica.predict(rng.normal(size=(5, 8)), rate=0.5)
        assert preds.shape == (5,)
        assert set(preds) <= {0, 1, 2}

    def test_predict_without_model_returns_none(self):
        replica = Replica("r0", LatencyProfile(0.002))
        assert replica.predict(np.zeros((2, 4)), 1.0) is None


class TestReplicaPool:
    def make_pool(self, n=3, dispatch="least-loaded", seed=0):
        return ReplicaPool([Replica(f"r{i}", LatencyProfile(0.002))
                            for i in range(n)], dispatch=dispatch, seed=seed)

    def test_least_loaded_prefers_idle(self):
        pool = self.make_pool()
        pool.get("r0").busy_until = 5.0
        picked = pool.pick(pool.replicas, 10, 1.0, now=0.0)
        assert picked.replica_id == "r1"  # idle, lowest id

    def test_dispatch_is_slice_rate_aware(self):
        # A slowed replica projects a later completion and loses the pick.
        pool = self.make_pool(n=2)
        pool.get("r0").slow_down(10.0, until=100.0)
        picked = pool.pick(pool.replicas, 10, 1.0, now=0.0)
        assert picked.replica_id == "r1"

    def test_power_of_two_is_seeded(self):
        choices_a = [self.make_pool(dispatch="power-of-two", seed=7)
                     .pick(self.make_pool().replicas, 4, 1.0, 0.0).replica_id
                     for _ in range(5)]
        choices_b = [self.make_pool(dispatch="power-of-two", seed=7)
                     .pick(self.make_pool().replicas, 4, 1.0, 0.0).replica_id
                     for _ in range(5)]
        assert choices_a == choices_b

    def test_quarantine_removes_from_rotation(self):
        pool = self.make_pool()
        pool.quarantine("r1")
        assert [r.replica_id for r in pool.in_rotation()] == ["r0", "r2"]
        assert [r.replica_id for r in pool.idle(0.0)] == ["r0", "r2"]

    def test_health_check_detects_crashes(self):
        pool = self.make_pool()
        pool.get("r2").crash()
        detected = pool.health_check()
        assert [r.replica_id for r in detected] == ["r2"]
        assert "r2" not in [r.replica_id for r in pool.in_rotation()]
        assert pool.health_check() == []  # already quarantined

    def test_validation(self):
        with pytest.raises(ServingError):
            ReplicaPool([])
        with pytest.raises(ServingError):
            ReplicaPool([Replica("a", LatencyProfile(0.001)),
                         Replica("a", LatencyProfile(0.001))])
        with pytest.raises(ServingError):
            self.make_pool(dispatch="round-robin")
        with pytest.raises(ServingError):
            self.make_pool().get("nope")


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            FaultEvent(time=5.0, kind="crash", replica_id="b"),
            FaultEvent(time=1.0, kind="slowdown", replica_id="a",
                       duration=1.0, factor=2.0),
        ])
        assert [e.time for e in plan] == [1.0, 5.0]

    def test_single_crash_helper(self):
        plan = FaultPlan.single_crash("r1", 45.0)
        assert len(plan) == 1
        assert plan.events[0].kind == "crash"
        assert plan.for_replica("r1") == list(plan)
        assert plan.for_replica("r0") == []

    def test_random_plan_is_deterministic(self):
        kwargs = dict(duration=60.0, replica_ids=["a", "b", "c"],
                      crashes=1, slowdowns=2, timeouts=1)
        assert FaultPlan.random(3, **kwargs).events == \
            FaultPlan.random(3, **kwargs).events
        assert FaultPlan.random(3, **kwargs).events != \
            FaultPlan.random(4, **kwargs).events

    def test_random_plan_never_crashes_every_replica(self):
        plan = FaultPlan.random(0, duration=60.0, replica_ids=["a", "b"],
                                crashes=5, slowdowns=0, timeouts=0)
        crashes = [e for e in plan if e.kind == "crash"]
        assert len(crashes) == 1

    def test_event_validation(self):
        with pytest.raises(ServingError):
            FaultEvent(time=1.0, kind="meteor", replica_id="a")
        with pytest.raises(ServingError):
            FaultEvent(time=-1.0, kind="crash", replica_id="a")
        with pytest.raises(ServingError):
            FaultEvent(time=1.0, kind="slowdown", replica_id="a",
                       duration=0.0)
        with pytest.raises(ServingError):
            FaultEvent(time=1.0, kind="slowdown", replica_id="a",
                       duration=1.0, factor=0.5)


class TestEmptyPercentiles:
    def test_empty_series_yields_none_per_percentile(self):
        from repro.runtime.telemetry import percentiles
        tails = percentiles([], (50, 95, 99))
        assert tails == {"p50": None, "p95": None, "p99": None}

    def test_nonempty_series_unaffected(self):
        from repro.runtime.telemetry import percentiles
        tails = percentiles([0.1, 0.2, 0.3])
        assert tails["p50"] == pytest.approx(0.2)

    def test_format_seconds_renders_none_as_dash(self):
        from repro.runtime import format_seconds
        assert format_seconds(None) == "-"
        assert format_seconds(0.0123) == "12.3ms"
        assert format_seconds(2.0, scale=1.0, unit="s", digits=0) == "2s"

    def test_table_formatter_renders_none_as_dash(self):
        from repro.utils.tables import format_table
        text = format_table(["a", "b"], [[None, 1.0]])
        assert "-" in text.splitlines()[-1]
