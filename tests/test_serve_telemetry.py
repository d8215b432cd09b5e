"""Engine-level telemetry tests: traces, metrics, burn rate, end to end.

One overloaded MMPP scenario with autoscaling and shedding drives most of
the file (module-scoped, so it simulates once); the assertions cover the
trace round-trip invariants the ISSUE pins — lifecycle span ordering,
monotonic timestamps, per-request completeness — plus registry totals,
the sampled fleet series, burn-rate surfacing, and the zero-impact
guarantee: telemetry must never change what the engine measures.
"""

import json
from dataclasses import fields

import pytest

from repro.obs import (
    SPAN_ADMIT,
    SPAN_ARRIVE,
    SPAN_DEPART,
    SPAN_DISPATCH,
    SPAN_ENQUEUE,
    SPAN_SHED,
    SPAN_TARPIT,
    TERMINAL_SPANS,
    MemoryTraceRecorder,
    MetricRegistry,
    NullRecorder,
    Sampler,
)
from repro.serve.engine import RunCounters
from repro.serve.scenario import ServingScenario, simulate_serving_scenario
from repro.serve.scenario import ServingRecord

SCENARIO = ServingScenario(
    arrival="mmpp",
    qps=400.0,
    duration_seconds=0.4,
    instances=1,
    autoscaler="target-util",
    max_instances=4,
    admission="shed",
    queue_budget=16,
    seed=3,
)

#: Every declared run counter the registry exports, by the gate that
#: arms its export: a counter declared but not exported fails below.
EXPORTED = {
    f.name: f.metadata for f in fields(RunCounters) if "metric" in f.metadata
}


def exported(*gates):
    return [name for name, meta in EXPORTED.items() if meta["gate"] in gates]


LIFECYCLE_ORDER = {
    SPAN_ARRIVE: 0, SPAN_TARPIT: 1, SPAN_SHED: 2, SPAN_ADMIT: 2,
    SPAN_ENQUEUE: 3, SPAN_DISPATCH: 4, SPAN_DEPART: 5,
}


@pytest.fixture(scope="module")
def traced_run():
    recorder = MemoryTraceRecorder(sample="all")
    registry = MetricRegistry()
    sampler = Sampler(interval_seconds=SCENARIO.duration_seconds / 20.0)
    report = simulate_serving_scenario(
        SCENARIO, recorder=recorder, registry=registry, sampler=sampler
    )
    return report, recorder, registry, sampler


class TestTraceRoundTrip:
    """Satellite: export, re-read, and pin the lifecycle invariants."""

    def test_exported_jsonl_reproduces_the_spans(self, traced_run, tmp_path):
        _, recorder, _, _ = traced_run
        path = recorder.export_jsonl(tmp_path / "trace.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == recorder.spans()
        assert len(rows) > 100  # an overloaded run has a real trace

    def test_seq_is_a_global_emission_order(self, traced_run):
        _, recorder, _, _ = traced_run
        seqs = [s["seq"] for s in recorder.spans()]
        assert seqs == list(range(len(seqs)))

    def test_timestamps_are_monotonic_in_emission_order(self, traced_run):
        _, recorder, _, _ = traced_run
        times = [s["time"] for s in recorder.spans()]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_every_request_follows_the_lifecycle_order(self, traced_run):
        _, recorder, _, _ = traced_run
        for request_id in recorder.request_ids():
            spans = recorder.spans_for(request_id)
            ranks = [LIFECYCLE_ORDER[s["kind"]] for s in spans]
            # Tarpitted requests loop arrive -> tarpit; within one pass
            # the rank sequence never goes backwards except at a retry,
            # which restarts from arrive.
            for a, b in zip(ranks, ranks[1:]):
                assert b >= a or b == LIFECYCLE_ORDER[SPAN_ARRIVE]
            times = [s["time"] for s in spans]
            assert all(x <= y for x, y in zip(times, times[1:]))

    def test_every_request_reaches_exactly_one_terminal_span(self, traced_run):
        report, recorder, _, _ = traced_run
        terminal_counts = {
            request_id: sum(
                1 for s in recorder.spans_for(request_id)
                if s["kind"] in TERMINAL_SPANS
            )
            for request_id in recorder.request_ids()
        }
        assert all(count == 1 for count in terminal_counts.values())
        departs = sum(
            1 for s in recorder.spans() if s["kind"] == SPAN_DEPART
        )
        sheds = sum(1 for s in recorder.spans() if s["kind"] == SPAN_SHED)
        assert departs == report.completed
        assert sheds == (report.admission.shed if report.admission else 0)

    def test_departs_carry_latency_and_verdict(self, traced_run):
        report, recorder, _, _ = traced_run
        violated = 0
        for span in recorder.spans():
            if span["kind"] == SPAN_DEPART:
                assert span["latency"] > 0
                violated += span["violated"]
        assert violated / report.completed == pytest.approx(
            report.slo_violation_rate
        )

    def test_fleet_spans_record_the_scaling_story(self, traced_run):
        report, recorder, _, _ = traced_run
        scale_spans = [s for s in recorder.spans() if s["kind"] == "scale"]
        assert report.autoscale is not None
        assert len(scale_spans) == len(report.autoscale.events)
        for span, event in zip(scale_spans, report.autoscale.events):
            assert (span["previous"], span["target"]) == (
                event.previous, event.target,
            )


class TestMetricsAndSampling:
    @pytest.mark.parametrize("counter", exported("", "admission"))
    def test_registry_totals_match_the_report(self, traced_run, counter):
        report, _, registry, _ = traced_run
        value = {m.name: m for m in registry}
        assert value[EXPORTED[counter]["metric"]].value == getattr(
            report, counter
        )
        assert value["admission_shed"].value == report.admission.shed
        assert value["latency_seconds"].count == report.completed

    def test_per_tenant_histograms_attached(self, traced_run):
        report, _, registry, _ = traced_run
        for tenant in report.tenants:
            assert f"latency_seconds[{tenant}]" in registry

    def test_sampler_series_has_deterministic_cadence(self, traced_run):
        report, _, _, sampler = traced_run
        # End-of-run flush guarantees ticks at 0, interval, ..., horizon.
        assert len(sampler) >= 21
        times = [row["time"] for row in sampler.rows]
        assert times[0] == 0.0
        assert times == sorted(times)
        expected = {
            "ready", "warming", "busy", "retiring", "provisioned",
            "queue_depth", "arrived", "admitted", "shed", "tarpitted",
            "completed", "utilization",
        }
        assert expected <= set(sampler.rows[0])
        assert sampler.rows[-1]["completed"] == report.completed


class TestBurnSurfacing:
    def test_burn_report_attached_and_rendered(self, traced_run):
        report, _, _, _ = traced_run
        assert report.burn is not None
        assert report.burn.completed == report.completed
        assert report.burn.overall_burn_rate == pytest.approx(
            report.slo_violation_rate / 0.01
        )
        text = report.render()
        assert "SLO burn (budget 1.00%" in text
        assert "burn/window" in text

    def test_trajectory_line_rendered_with_scale_events(self, traced_run):
        report, _, _, _ = traced_run
        assert report.autoscale is not None and report.autoscale.events
        assert "trajectory:" in report.render()

    def test_record_carries_burn_metrics(self, traced_run):
        report, _, _, _ = traced_run
        record = ServingRecord.from_report(
            SCENARIO, report, key="k", eval_seconds=0.1
        )
        assert record.overall_burn_rate == pytest.approx(
            report.burn.overall_burn_rate
        )
        assert record.peak_burn_rate == pytest.approx(
            report.burn.peak_burn_rate
        )
        assert "peak_burn_rate" in record.metrics()
        rebuilt = ServingRecord.from_dict(record.to_dict(), cached=True)
        assert rebuilt.peak_burn_rate == record.peak_burn_rate


class TestZeroImpact:
    """Telemetry observes the run; it must never change it."""

    def test_traced_and_untraced_reports_are_identical(self, traced_run):
        traced_report, _, _, _ = traced_run
        plain = simulate_serving_scenario(SCENARIO)
        assert plain.render() == traced_report.render()

    def test_null_recorder_matches_no_recorder(self):
        scenario = ServingScenario(qps=150.0, duration_seconds=0.3, seed=1)
        a = simulate_serving_scenario(scenario, recorder=NullRecorder())
        b = simulate_serving_scenario(scenario)
        assert a.render() == b.render()

    def test_traces_are_deterministic(self):
        def spans():
            recorder = MemoryTraceRecorder(sample="all")
            simulate_serving_scenario(SCENARIO, recorder=recorder)
            return recorder.spans()

        assert spans() == spans()


class TestP2Backend:
    def test_p2_scenario_runs_and_tracks_exact(self):
        exact = simulate_serving_scenario(SCENARIO)
        approx = simulate_serving_scenario(
            ServingScenario(**{**SCENARIO.__dict__, "metrics_backend": "p2"})
        )
        assert approx.completed == exact.completed
        assert approx.latency.p99 == pytest.approx(exact.latency.p99, rel=0.05)
        assert approx.latency.max == exact.latency.max

    def test_unknown_backend_rejected_at_scenario_level(self):
        with pytest.raises(ValueError, match="backend"):
            ServingScenario(metrics_backend="hdr")


class TestAdaptiveMsFormatting:
    """Satellite: sub-0.1 ms latencies must not render as '0.00 ms'."""

    def test_small_latencies_get_more_precision(self, traced_run):
        report, _, _, _ = traced_run
        from dataclasses import replace

        from repro.noc.stats import LatencySummary

        tiny = replace(
            report,
            latency=LatencySummary(
                count=10, mean=4e-6, p50=4e-6, p95=8e-6, p99=9.5e-6, max=1e-5,
            ),
            tenants={},
        )
        text = tiny.render()
        assert "p50 0.004 ms" in text
        assert "0.00 ms" not in text.split("SLO")[0]

    def test_regular_latencies_keep_fixed_precision(self, traced_run):
        report, _, _, _ = traced_run
        assert "SLO 50.00 ms" in report.render()


FAULTED_SCENARIO = ServingScenario(
    qps=150.0,
    duration_seconds=2.0,
    instances=4,
    fleet="small:2,default:2",
    routing="size_affinity",
    slo_seconds=0.1,
    faults="default",
    retry="backoff",
    hedge_seconds=0.04,
    seed=0,
)


@pytest.fixture(scope="module")
def faulted_run():
    recorder = MemoryTraceRecorder(sample="all")
    registry = MetricRegistry()
    report = simulate_serving_scenario(
        FAULTED_SCENARIO, recorder=recorder, registry=registry
    )
    return report, recorder, registry


class TestFaultedTelemetry:
    """Satellite: the reliability spans round-trip and stay consistent.

    A faulted run with retries and hedging is the stress case for the
    terminal-span invariant: a request may fail, retry, hedge, and race
    two copies -- but it must still settle exactly once.
    """

    def test_run_actually_exercises_the_reliability_paths(self, faulted_run):
        report, _, _ = faulted_run
        assert report.crashes > 0
        assert report.retries > 0
        assert report.hedges_fired > 0

    def test_every_request_settles_exactly_once_under_retries(
        self, faulted_run
    ):
        from repro.obs import TERMINAL_SPANS

        _, recorder, _ = faulted_run
        for request_id in recorder.request_ids():
            terminal = [
                s for s in recorder.spans_for(request_id)
                if s["kind"] in TERMINAL_SPANS
            ]
            assert len(terminal) == 1, (
                f"request {request_id} settled {len(terminal)} times"
            )

    def test_reliability_span_counts_match_the_report(self, faulted_run):
        from repro.obs import (
            SPAN_FAIL,
            SPAN_HEDGE_CANCELLED,
            SPAN_HEDGE_FIRED,
            SPAN_RETRY,
        )

        report, recorder, _ = faulted_run
        kinds = [s["kind"] for s in recorder.spans()]
        assert kinds.count(SPAN_FAIL) == report.failed
        assert kinds.count(SPAN_RETRY) == report.retries
        assert kinds.count(SPAN_HEDGE_FIRED) == report.hedges_fired
        assert kinds.count(SPAN_HEDGE_CANCELLED) == report.hedges_cancelled
        assert kinds.count(SPAN_DEPART) == report.completed

    def test_fleet_spans_tell_the_crash_story(self, faulted_run):
        from repro.obs import FLEET_CRASH, FLEET_RECOVER

        report, recorder, _ = faulted_run
        kinds = [s["kind"] for s in recorder.spans()]
        assert kinds.count(FLEET_CRASH) == report.crashes
        assert kinds.count(FLEET_RECOVER) == report.recoveries

    @pytest.mark.parametrize("counter", exported("reliability", "typed"))
    def test_registry_carries_the_reliability_counters(
        self, faulted_run, counter
    ):
        """The reliability counters, plus the typed-fleet metrics this
        heterogeneous run also arms."""
        report, _, registry = faulted_run
        value = {m.name: m for m in registry}
        assert value[EXPORTED[counter]["metric"]].value == getattr(
            report, counter
        )

    def test_killed_instances_rendered_in_the_report(self, faulted_run):
        report, _, _ = faulted_run
        text = report.render()
        assert f"killed {report.crashes} instance(s)" in text
        assert "availability" in text

    def test_default_registry_has_no_reliability_counters(self, traced_run):
        _, _, registry, _ = traced_run
        names = {m.name for m in registry}
        assert "requests_failed" not in names
        assert "hedges_fired" not in names
