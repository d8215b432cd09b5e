"""Tests for admission control: quotas, shedding, tarpitting.

The headline assertion reproduces the PR's acceptance criterion: under
2x overload, the p99 of *admitted* requests stays bounded (by the queue
budget's analytic drain time) while the open-loop tail explodes.
"""

import pytest

from repro.serve.admission import (
    ADMISSION_MODES,
    AdmissionController,
    TokenBucket,
)
from repro.serve.arrivals import (
    ClosedLoopPool,
    MMPPArrivals,
    PoissonArrivals,
    TenantMix,
)
from repro.serve.capacity import plan_capacity
from repro.serve.engine import ServingEngine
from repro.serve.scheduler import BatchingScheduler
from repro.serve.service import LinearServiceModel

# Calibrated so a full batch of the largest graphs (8 x 4096 nodes)
# still fits the 50 ms SLO — otherwise no fleet is ever feasible.
BASE_SECONDS = 0.004
PER_NODE = 1e-6


def engine(instances=2, admission=None, max_batch=4, max_wait=0.002, slo=0.05):
    return ServingEngine(
        scheduler=BatchingScheduler(max_batch=max_batch, max_wait_seconds=max_wait),
        service=LinearServiceModel(
            base_seconds=BASE_SECONDS, per_node_seconds=PER_NODE
        ),
        instances=instances,
        slo_seconds=slo,
        admission=admission,
    )


def overload(qps=800.0, horizon=2.0, seed=2, tenants=2):
    return MMPPArrivals(qps, mix=TenantMix.uniform(tenants), seed=seed).generate(
        horizon
    )


class TestTokenBucket:
    def test_starts_full_and_consumes(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.05)   # half a token so far
        assert bucket.try_take(0.1)

    def test_burst_caps_banked_tokens(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        assert bucket.peek(100.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestController:
    def test_admits_when_within_budget(self):
        controller = AdmissionController(mode="shed", queue_budget=4)
        decision = controller.admit("t", now=0.0, queue_depth=3)
        assert decision.admitted

    def test_queue_budget_sheds(self):
        controller = AdmissionController(mode="shed", queue_budget=4)
        decision = controller.admit("t", now=0.0, queue_depth=4)
        assert not decision.admitted
        assert decision.reason == "queue"
        assert decision.retry_after_seconds == 0.0

    def test_tarpit_asks_for_retry(self):
        controller = AdmissionController(
            mode="tarpit", queue_budget=1, tarpit_seconds=0.03
        )
        decision = controller.admit("t", now=0.0, queue_depth=5)
        assert not decision.admitted
        assert decision.retry_after_seconds == 0.03

    def test_quota_checked_before_queue(self):
        controller = AdmissionController(
            mode="shed", queue_budget=1, tenant_quota_qps=10.0
        )
        for _ in range(int(controller.quota_burst)):
            assert controller.admit("t", now=0.0, queue_depth=0).admitted
        decision = controller.admit("t", now=0.0, queue_depth=99)
        assert decision.reason == "quota"   # not "queue"

    def test_quota_buckets_are_per_tenant(self):
        controller = AdmissionController(
            mode="shed", queue_budget=0, tenant_quota_qps=10.0
        )
        assert controller.quota_burst == 16.0
        for _ in range(16):
            assert controller.admit("a", now=0.0, queue_depth=0).admitted
        assert not controller.admit("a", now=0.0, queue_depth=0).admitted
        assert controller.admit("b", now=0.0, queue_depth=0).admitted

    def test_zero_budget_disables_the_queue_gate(self):
        controller = AdmissionController(mode="shed", queue_budget=0)
        assert controller.admit("t", now=0.0, queue_depth=10_000).admitted

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(mode="polite")
        with pytest.raises(ValueError):
            AdmissionController(queue_budget=-1)
        with pytest.raises(ValueError):
            AdmissionController(tenant_quota_qps=-1.0)
        with pytest.raises(ValueError):
            AdmissionController(tarpit_seconds=0.0)
        assert ADMISSION_MODES == ("shed", "tarpit")


class TestEngineShedding:
    def test_queue_budget_bounds_peak_depth(self):
        budget = 16
        report = engine(
            admission=AdmissionController(mode="shed", queue_budget=budget)
        ).run(requests=overload(), horizon_seconds=2.0)
        assert report.peak_queue_depth <= budget
        assert report.admission.shed > 0
        assert report.admission.shed_by_reason == {
            "queue": report.admission.shed
        }

    def test_accounting_adds_up(self):
        report = engine(
            admission=AdmissionController(mode="shed", queue_budget=16)
        ).run(requests=overload(), horizon_seconds=2.0)
        stats = report.admission
        assert stats.offered == report.offered
        assert stats.admitted + stats.shed == stats.offered
        assert stats.admitted == report.completed
        assert sum(stats.per_tenant_shed.values()) == stats.shed
        assert 0.0 < stats.shed_rate < 1.0

    def test_light_load_sheds_nothing(self):
        requests = PoissonArrivals(
            30.0, mix=TenantMix.uniform(2), seed=0
        ).generate(1.0)
        report = engine(
            admission=AdmissionController(mode="shed", queue_budget=16)
        ).run(requests=requests, horizon_seconds=1.0)
        assert report.admission.shed == 0
        assert report.completed == report.offered

    def test_deterministic(self):
        def go():
            return engine(
                admission=AdmissionController(mode="shed", queue_budget=16)
            ).run(requests=overload(), horizon_seconds=2.0)

        assert go() == go()

    def test_per_tenant_quota_throttles_the_heavy_tenant(self):
        mix = TenantMix(tenants=(("heavy", 8.0), ("light", 1.0)))
        requests = PoissonArrivals(300.0, mix=mix, seed=0).generate(2.0)
        report = engine(
            instances=4,
            admission=AdmissionController(
                mode="shed", queue_budget=0, tenant_quota_qps=50.0
            ),
        ).run(requests=requests, horizon_seconds=2.0)
        shed = report.admission.per_tenant_shed
        assert shed.get("heavy", 0) > 10 * shed.get("light", 0)
        # The light tenant stays almost untouched under its own quota.
        assert shed.get("light", 0) < 5


class TestEngineTarpit:
    def test_tarpit_delays_instead_of_dropping(self):
        shed = engine(
            admission=AdmissionController(mode="shed", queue_budget=16)
        ).run(requests=overload(), horizon_seconds=2.0)
        tarpit = engine(
            admission=AdmissionController(
                mode="tarpit", queue_budget=16, tarpit_seconds=0.02
            )
        ).run(requests=overload(), horizon_seconds=2.0)
        assert tarpit.admission.tarpitted > 0
        # Backpressure admits more of the offered load than shedding...
        assert tarpit.admission.admitted > shed.admission.admitted
        # ...and the admitted-but-delayed requests pay for it in latency.
        assert tarpit.latency.p99 > shed.latency.p99

    def test_tarpitted_latency_includes_the_wait(self):
        # One instance, queue budget 1: the second request must be
        # tarpitted at least once and its latency includes that delay.
        from repro.serve.arrivals import Request

        requests = [
            Request(tenant="t", graph_size=1000, arrival_time=0.0),
            Request(tenant="t", graph_size=1000, arrival_time=0.001),
            Request(tenant="t", graph_size=1000, arrival_time=0.002),
        ]
        report = engine(
            instances=1, max_batch=1, max_wait=0.0,
            admission=AdmissionController(
                mode="tarpit", queue_budget=1, tarpit_seconds=0.05
            ),
        ).run(requests=requests, horizon_seconds=1.0)
        assert report.admission.tarpitted > 0
        assert report.latency.max >= 0.05

    def test_still_refused_at_horizon_is_shed(self):
        report = engine(
            instances=1,
            admission=AdmissionController(
                mode="tarpit", queue_budget=4, tarpit_seconds=0.02
            ),
        ).run(requests=overload(qps=2000.0, horizon=0.5), horizon_seconds=0.5)
        stats = report.admission
        assert stats.shed > 0
        assert stats.admitted + stats.shed == stats.offered


class TestClosedLoopAdmission:
    def test_refused_clients_move_on(self):
        pool = ClosedLoopPool(
            num_clients=8, think_seconds=0.0, mix=TenantMix.uniform(2), seed=0
        )
        report = engine(
            instances=1, max_batch=2,
            admission=AdmissionController(mode="shed", queue_budget=2),
        ).run(closed_loop=pool, horizon_seconds=1.0)
        # No deadlock: shed clients immediately owe their next request,
        # so the run keeps offering work for the whole horizon.
        assert report.admission.shed > 0
        assert report.completed > 0
        assert report.makespan_seconds > 0.5


class TestAcceptanceCriterion:
    """The ISSUE's bounded-overload claim, pinned as a deterministic test."""

    QPS = 400.0
    BUDGET = 24
    MAX_BATCH = 8

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.serve.scenario import ServingScenario

        # Size the fleet for the nominal load...
        scenario = ServingScenario(
            arrival="mmpp", qps=self.QPS, duration_seconds=2.0,
            max_batch=self.MAX_BATCH, slo_seconds=0.05, seed=0,
        )
        plan = plan_capacity(
            scenario,
            max_instances=16,
            service=LinearServiceModel(
                base_seconds=BASE_SECONDS, per_node_seconds=PER_NODE
            ),
        )
        assert plan.feasible
        return plan.instances

    def requests(self):
        # ...then offer twice that load.
        return MMPPArrivals(
            2.0 * self.QPS, mix=TenantMix.uniform(2), seed=0
        ).generate(2.0)

    def test_open_loop_tail_explodes(self, fleet):
        report = engine(
            instances=fleet, max_batch=self.MAX_BATCH, max_wait=0.005
        ).run(requests=self.requests(), horizon_seconds=2.0)
        assert report.latency.p99 > 4 * report.slo_seconds

    def test_admitted_p99_is_bounded_by_the_queue_budget(self, fleet):
        report = engine(
            instances=fleet, max_batch=self.MAX_BATCH, max_wait=0.005,
            admission=AdmissionController(mode="shed", queue_budget=self.BUDGET),
        ).run(requests=self.requests(), horizon_seconds=2.0)
        # Worst admitted case: the whole budget queued ahead, every batch
        # at the largest graph size, one replica doing all the work, plus
        # the batcher's own deadline.
        worst_batch = BASE_SECONDS + PER_NODE * 4096 * self.MAX_BATCH
        bound = (self.BUDGET / self.MAX_BATCH + 1) * worst_batch + 0.005
        assert report.admission.shed > 0
        assert report.latency.p99 <= bound
        # And the bound is meaningfully tighter than the open-loop tail.
        assert bound < 4 * report.slo_seconds
