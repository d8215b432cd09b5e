"""Tests for the discrete-event serving engine and its SLO analytics."""

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.obs import MemoryTraceRecorder
from repro.serve.arrivals import ClosedLoopPool, PoissonArrivals, Request, TenantMix
from repro.serve.engine import ServingEngine, ServingReport
from repro.serve.scheduler import BatchingScheduler
from repro.serve.service import AcceleratorServiceModel, LinearServiceModel


def engine(max_batch=4, max_wait=0.002, instances=2, slo=0.05, policy="fifo",
           base=0.002, per_node=1e-6):
    return ServingEngine(
        scheduler=BatchingScheduler(
            max_batch=max_batch, max_wait_seconds=max_wait, policy=policy
        ),
        service=LinearServiceModel(base_seconds=base, per_node_seconds=per_node),
        instances=instances,
        slo_seconds=slo,
    )


def workload(qps=200.0, horizon=2.0, seed=0, tenants=2):
    return PoissonArrivals(
        qps, mix=TenantMix.uniform(tenants), seed=seed
    ).generate(horizon)


class TestOpenLoop:
    def test_everything_admitted_is_served(self):
        requests = workload()
        report = engine().run(requests=requests, horizon_seconds=2.0)
        assert report.offered == len(requests)
        assert report.completed == len(requests)
        assert report.latency.count == len(requests)

    def test_report_internal_consistency(self):
        report = engine().run(requests=workload(), horizon_seconds=2.0)
        assert report.latency.p50 <= report.latency.p95 <= report.latency.p99
        assert report.latency.p99 <= report.latency.max
        assert 0.0 < report.utilization <= 1.0
        assert 0.0 <= report.slo_violation_rate <= 1.0
        assert report.mean_batch_size >= 1.0
        assert report.peak_queue_depth >= 1
        assert sum(t.completed for t in report.tenants.values()) == report.completed
        assert report.makespan_seconds >= max(r.arrival_time for r in workload())

    def test_latency_includes_queueing_and_service(self):
        # A single request: waits out the deadline, then is served alone.
        request = Request(tenant="t", graph_size=1000, arrival_time=0.5)
        report = engine(max_wait=0.004).run(requests=[request])
        expected = 0.004 + 0.002 + 1e-6 * 1000
        assert report.latency.max == pytest.approx(expected, abs=1e-9)

    def test_stale_timeouts_do_not_inflate_makespan(self):
        # With max_batch=1 the lone request dispatches immediately at
        # arrival; its armed TIMEOUT fires later as a no-op and must not
        # stretch the throughput/utilization window.
        request = Request(tenant="t", graph_size=1000, arrival_time=0.5)
        report = engine(max_batch=1, max_wait=0.1).run(requests=[request])
        service = 0.002 + 1e-6 * 1000
        assert report.makespan_seconds == pytest.approx(0.5 + service)
        assert report.throughput_qps == pytest.approx(1.0 / (0.5 + service))

    def test_deterministic_for_fixed_seed(self):
        a = engine().run(requests=workload(seed=3), horizon_seconds=2.0)
        b = engine().run(requests=workload(seed=3), horizon_seconds=2.0)
        assert a == b

    def test_batching_beats_no_batching_under_load(self):
        # Base cost dominates: batching amortizes it, no-batching saturates.
        requests = workload(qps=800.0, horizon=1.0)
        batched = engine(max_batch=16).run(requests=requests, horizon_seconds=1.0)
        serial = engine(max_batch=1).run(requests=requests, horizon_seconds=1.0)
        assert batched.latency.p99 < serial.latency.p99
        assert batched.throughput_qps > serial.throughput_qps

    def test_more_instances_lower_latency_under_load(self):
        requests = workload(qps=900.0, horizon=1.0)
        few = engine(instances=1).run(requests=requests, horizon_seconds=1.0)
        many = engine(instances=4).run(requests=requests, horizon_seconds=1.0)
        assert many.latency.p99 <= few.latency.p99
        assert many.mean_queue_depth <= few.mean_queue_depth

    def test_overload_grows_the_tail(self):
        light = engine().run(requests=workload(qps=50.0), horizon_seconds=2.0)
        heavy = engine().run(requests=workload(qps=3000.0), horizon_seconds=2.0)
        assert heavy.latency.p99 > light.latency.p99
        assert heavy.slo_violation_rate >= light.slo_violation_rate

    def test_requests_after_horizon_dropped(self):
        requests = [
            Request(tenant="t", graph_size=10, arrival_time=0.1, request_id=0),
            Request(tenant="t", graph_size=10, arrival_time=5.0, request_id=1),
        ]
        report = engine().run(requests=requests, horizon_seconds=1.0)
        assert report.offered == 1
        assert report.completed == 1

    def test_input_order_of_tied_arrivals_does_not_matter(self):
        """Arrivals on a 10 ms grid tie in batches of about eight; a
        shuffled copy must replay exactly as the sorted stream (ties go
        by request id), down to every span, with a horizon that drops the
        tail."""
        tied = [
            Request(r.tenant, r.graph_size, round(r.arrival_time, 2), r.request_id)
            for r in workload(qps=800.0, horizon=1.0, tenants=3)
        ]
        shuffled = list(tied)
        random.Random(0).shuffle(shuffled)

        def digest(requests):
            recorder = MemoryTraceRecorder(sample="all")
            served = engine()
            served.recorder = recorder
            report = served.run(requests=requests, horizon_seconds=0.9)
            assert report.offered < len(requests)
            payload = repr((asdict(report), report.render(), recorder.spans()))
            return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

        assert shuffled != tied
        assert digest(shuffled) == digest(tied)

    def test_empty_workload(self):
        report = engine().run(requests=[], horizon_seconds=1.0)
        assert report.completed == 0
        assert report.utilization == 0.0
        assert report.latency.count == 0

    def test_per_tenant_split(self):
        report = engine().run(requests=workload(tenants=3), horizon_seconds=2.0)
        assert set(report.tenants) == {"tenant-0", "tenant-1", "tenant-2"}
        for tenant in report.tenants.values():
            assert tenant.completed == tenant.latency.count > 0


class TestClosedLoop:
    def test_runs_to_completion(self):
        pool = ClosedLoopPool(num_clients=3, think_seconds=0.01, seed=0)
        report = engine().run(closed_loop=pool, horizon_seconds=1.0)
        assert report.completed > 0
        assert report.completed == report.latency.count

    def test_in_flight_bounded_by_clients(self):
        pool = ClosedLoopPool(num_clients=2, think_seconds=0.0, seed=0)
        report = engine(max_batch=8).run(closed_loop=pool, horizon_seconds=0.5)
        # With 2 clients, at most 2 requests can ever be queued at once.
        assert report.peak_queue_depth <= 2

    def test_deterministic(self):
        a = engine().run(
            closed_loop=ClosedLoopPool(num_clients=3, seed=1), horizon_seconds=0.5
        )
        b = engine().run(
            closed_loop=ClosedLoopPool(num_clients=3, seed=1), horizon_seconds=0.5
        )
        assert a == b

    def test_needs_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            engine().run(closed_loop=ClosedLoopPool())


class TestValidation:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            engine().run()
        with pytest.raises(ValueError, match="exactly one"):
            engine().run(requests=[], closed_loop=ClosedLoopPool())

    def test_engine_parameters(self):
        with pytest.raises(ValueError, match="instance"):
            engine(instances=0)
        with pytest.raises(ValueError, match="SLO"):
            engine(slo=0.0)


class TestRender:
    def test_report_mentions_the_slo_metrics(self):
        report = engine().run(requests=workload(), horizon_seconds=2.0)
        text = report.render()
        assert "p50" in text and "p95" in text and "p99" in text
        assert "violation rate" in text
        assert "tenant-0" in text

    def test_report_type(self):
        assert isinstance(
            engine().run(requests=workload(), horizon_seconds=2.0), ServingReport
        )


class TestAcceleratorServiceModel:
    def test_calibrates_once_and_memoizes_by_shape(self):
        model = AcceleratorServiceModel(dataset="ppi", scale=0.05, seed=0)
        a = model.batch_service_seconds((100, 200))
        b = model.batch_service_seconds((200, 100))  # same multiset
        assert a == b
        assert (100, 200) in model._memo and len(model._memo) == 1

    def test_service_scales_with_batch_and_size(self):
        model = AcceleratorServiceModel(dataset="ppi", scale=0.05, seed=0)
        one = model.batch_service_seconds((500,))
        two = model.batch_service_seconds((500, 500))
        big = model.batch_service_seconds((2000,))
        assert two > one  # more requests occupy the pipeline longer
        assert big > one  # larger graphs stretch the period
        # Marginal cost of the second request is one scaled period, far
        # less than a whole second batch (that's what batching buys).
        assert two - one < one

    def test_matches_the_pipeline_numbers(self):
        # One reference-sized request = pipeline fill + exactly one period.
        model = AcceleratorServiceModel(dataset="ppi", scale=0.05, seed=0)
        n = model.reference_nodes
        assert model.batch_service_seconds((n,)) == pytest.approx(
            model.fill_seconds + model.period_seconds
        )

    def test_rejects_bad_batches(self):
        model = AcceleratorServiceModel()
        with pytest.raises(ValueError, match="at least one request"):
            model.batch_service_seconds(())
        with pytest.raises(ValueError, match="positive"):
            model.batch_service_seconds((0,))
        # A memo hit skips the checks: only sizes equal to a validated
        # key may hit, and a bad batch still misses once shapes are stored.
        seconds = model.batch_service_seconds((100, 200))
        assert model.batch_service_seconds([200.0, 100]) == seconds
        with pytest.raises(ValueError, match="positive"):
            model.batch_service_seconds((100, 0))
        assert list(model._memo) == [(100, 200)]


class TestCLISmoke:
    def test_serve_command_reports_percentiles(self, capsys):
        from repro.__main__ import main

        main([
            "serve", "--qps", "30", "--duration", "0.5", "--instances", "1",
            "--no-cache",
        ])
        out = capsys.readouterr().out
        assert "p99" in out
        assert "violation rate" in out
        assert "tenant-0" in out
