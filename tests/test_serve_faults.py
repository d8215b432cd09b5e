"""Fault injection, retries/hedging, and availability-aware planning.

Four layers under test:

* the declarative pieces — :class:`FaultSpec` parsing/rendering and the
  deterministic :class:`RetryPolicy` delays;
* the seeded :class:`FaultInjector` decision stream;
* the engine under fire — crashes, slowdowns, and zone outages against
  a loaded accelerator-calibrated workload, with the conservation and
  determinism invariants the fig. 12 experiment leans on;
* the N+k capacity planner — ``plan_fleet(availability=k)`` must agree
  with brute-force enumeration over reduced fleets.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.serve.admission import AdmissionController
from repro.serve.arrivals import PoissonArrivals, Request
from repro.serve.capacity import (
    enumerate_fleets,
    meets_slo,
    plan_fleet,
    survivable_fleets,
)
from repro.serve.engine import ServingEngine
from repro.serve.faults import (
    DEFAULT_FAULT_SPEC_TEXT,
    FaultInjector,
    FaultSpec,
)
from repro.serve.fleet import FleetSpec, TypedReplicaPool
from repro.serve.retry import RetryPolicy, make_retry_policy
from repro.serve.scenario import (
    ServingScenario,
    run_serving_scenario,
    scenario_with,
    simulate_serving_scenario,
)
from repro.serve.scheduler import BatchingScheduler
from repro.serve.service import LinearServiceModel

# ---------------------------------------------------------------------------
# FaultSpec
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_round_trips_through_render(self):
        spec = FaultSpec.parse("mtbf=0.4,mttr=0.1,zones=2,zone_mtbf=4.0")
        assert FaultSpec.parse(spec.render()) == spec

    def test_default_keyword_expands_to_the_stock_zoo(self):
        assert FaultSpec.parse("default") == FaultSpec.parse(
            DEFAULT_FAULT_SPEC_TEXT
        )
        assert FaultSpec.parse("default").enabled

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultSpec.parse("mtbf=0.4,typo=1")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            FaultSpec.parse("mtbf=fast")
        with pytest.raises(ValueError, match="key=value"):
            FaultSpec.parse("mtbf")
        with pytest.raises(ValueError, match="empty"):
            FaultSpec.parse("  ")

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(mtbf=-1.0)
        with pytest.raises(ValueError, match="positive"):
            FaultSpec(mtbf=1.0, mttr=0.0)
        with pytest.raises(ValueError, match="slow_factor"):
            FaultSpec(slow_mtbf=1.0, slow_factor=1.0)
        with pytest.raises(ValueError, match="zones"):
            FaultSpec(zones=0)

    def test_disabled_when_every_rate_is_zero(self):
        assert not FaultSpec().enabled
        assert FaultSpec(mtbf=0.5).enabled
        assert FaultSpec(slow_mtbf=0.5).enabled
        assert FaultSpec(zones=2, zone_mtbf=0.5).enabled

    @pytest.mark.parametrize(
        "disabled", [FaultSpec(), FaultSpec(mttr=0.3, zones=2, slow_factor=3.0)]
    )
    def test_disabled_spec_runs_the_fault_free_engine(self, disabled):
        requests = PoissonArrivals(300.0, seed=4).generate(0.5)

        def run(faults):
            engine = ServingEngine(
                scheduler=BatchingScheduler(max_batch=4, max_wait_seconds=0.002),
                service=LinearServiceModel(base_seconds=0.003, per_node_seconds=2e-6),
                instances=2,
                faults=faults,
            )
            return engine, engine.run(requests=requests, horizon_seconds=0.5)

        engine, report = run(disabled)
        assert engine.faults is None
        _, reference = run(None)
        assert asdict(report) == asdict(reference)
        assert report.render() == reference.render()


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def _request(self, rid: int = 7, arrival: float = 0.0) -> Request:
        return Request(
            tenant="t", graph_size=100, arrival_time=arrival, request_id=rid
        )

    def test_none_mode_never_retries(self):
        assert make_retry_policy("none") is None
        policy = RetryPolicy(mode="none")
        assert not policy.enabled
        assert policy.next_delay(self._request(), 1, 0.0) is None

    def test_backoff_doubles_and_respects_max_attempts(self):
        policy = RetryPolicy(mode="backoff", max_attempts=3)
        base = policy.base_seconds
        assert base == 0.005
        request = self._request()
        d1 = policy.next_delay(request, 1, 0.0)
        d2 = policy.next_delay(request, 2, 0.0)
        assert d1 is not None and d2 is not None
        # Jitter scales each delay into [0.5, 1.0) of its nominal value.
        assert 0.5 * base <= d1 < base
        assert base <= d2 < 2 * base
        assert policy.next_delay(request, 3, 0.0) is None

    def test_jitter_is_deterministic_and_request_dependent(self):
        policy = RetryPolicy(mode="backoff", seed=5)
        a = policy.next_delay(self._request(rid=1), 1, 0.0)
        b = policy.next_delay(self._request(rid=1), 1, 0.0)
        c = policy.next_delay(self._request(rid=2), 1, 0.0)
        assert a == b
        assert a != c

    def test_deadline_mode_gives_up_on_doomed_retries(self):
        policy = RetryPolicy(mode="deadline", max_attempts=10)
        assert policy.deadline_seconds == 0.25
        request = self._request(arrival=0.0)
        assert policy.next_delay(request, 1, 0.05) is not None
        # The shortest first delay is half the base: 0.2475 + 0.0025.
        assert policy.next_delay(request, 1, 0.2475) is None
        # Backoff mode has no deadline.
        backoff = RetryPolicy(mode="backoff", max_attempts=10)
        assert backoff.next_delay(request, 1, 0.2475) is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown retry mode"):
            RetryPolicy(mode="always")
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(mode="backoff", max_attempts=0)


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_decision_stream(self):
        spec = FaultSpec.parse("default")
        a = FaultInjector(spec, seed=3, slices=2)
        b = FaultInjector(spec, seed=3, slices=2)
        assert [a.next_crash_gap(2) for _ in range(5)] == [
            b.next_crash_gap(2) for _ in range(5)
        ]
        assert a.pick_victim((4, 5, 6)) == b.pick_victim((4, 5, 6))
        assert a.pick_zone() == b.pick_zone()

    def test_different_seeds_diverge(self):
        spec = FaultSpec.parse("default")
        a = FaultInjector(spec, seed=0, slices=1)
        b = FaultInjector(spec, seed=1, slices=1)
        assert [a.next_crash_gap(1) for _ in range(4)] != [
            b.next_crash_gap(1) for _ in range(4)
        ]

    def test_empty_slice_has_no_victim_but_a_finite_gap(self):
        injector = FaultInjector(FaultSpec(mtbf=0.5), seed=0, slices=1)
        assert injector.pick_victim(()) is None
        assert injector.next_crash_gap(0) > 0.0

    def test_zone_mapping_is_modular(self):
        injector = FaultInjector(
            FaultSpec(zones=3, zone_mtbf=1.0), seed=0, slices=1
        )
        assert [injector.zone_of(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]


# ---------------------------------------------------------------------------
# The engine under fire
# ---------------------------------------------------------------------------
#: A loaded regime on the accelerator-calibrated service model: crashes
#: regularly hit busy instances, so the reliability paths actually run.
_FAULTED = ServingScenario(
    qps=150.0,
    duration_seconds=2.0,
    instances=4,
    fleet="small:2,default:2",
    routing="size_affinity",
    slo_seconds=0.1,
    faults="default",
    seed=0,
)


class TestFaultedEngine:
    def test_faulted_run_is_deterministic(self):
        a = run_serving_scenario(_FAULTED, store=None)
        b = run_serving_scenario(_FAULTED, store=None)
        assert a.metrics() == b.metrics()
        assert a.crashes > 0

    def test_crashes_fail_requests_and_conserve_the_offered_load(self):
        report = simulate_serving_scenario(_FAULTED)
        assert report.crashes > 0
        assert report.failed > 0  # some in-flight batch died
        assert report.completed + report.failed == report.offered
        assert report.availability == report.completed / report.offered
        assert 0.0 < report.availability < 1.0
        assert "killed" in report.render()
        assert "availability" in report.render()

    def test_recoveries_replace_non_retiring_crash_victims(self):
        report = simulate_serving_scenario(_FAULTED)
        assert 0 < report.recoveries <= report.crashes

    def test_retries_recover_failed_requests(self):
        bare = simulate_serving_scenario(_FAULTED)
        retried = simulate_serving_scenario(
            scenario_with(_FAULTED, retry="backoff")
        )
        assert retried.retries > 0
        assert retried.failed < bare.failed
        assert retried.availability > bare.availability

    def test_hedging_fires_and_settles_every_copy(self):
        report = simulate_serving_scenario(
            scenario_with(_FAULTED, retry="backoff", hedge_seconds=0.04)
        )
        assert report.hedges_fired > 0
        # Every fired hedge settles exactly once: cancelled at a losing
        # departure or absorbed by a crash -- never double-served.
        assert report.hedges_cancelled <= report.hedges_fired
        assert report.completed + report.failed == report.offered

    def test_hedge_routes_released_after_late_copies(self):
        """A retry queued before its hedge fired can run after the hedge
        copy already settled the request.  That late copy re-routes the
        request; the engine must still end with no hedge route held (its
        run raises otherwise).  Seed 39 reaches that path in 2 s."""
        report = simulate_serving_scenario(
            ServingScenario(
                arrival="mmpp", qps=5900.0, duration_seconds=2.0,
                num_tenants=4, policy="wfq",
                fleet="small:6,default:8,large:4", routing="size_affinity",
                autoscaler="target-util", max_instances=128,
                admission="shed", queue_budget=256, faults="default",
                retry="backoff", hedge_seconds=0.04, metrics_backend="p2",
                seed=39,
            )
        )
        assert report.hedges_fired > 0 and report.retries > 0

    def test_slowdowns_degrade_latency_without_failures(self):
        slow = simulate_serving_scenario(
            scenario_with(
                _FAULTED,
                faults="slow_mtbf=0.4,slow_factor=4.0,slow_duration=0.2",
            )
        )
        clean = simulate_serving_scenario(scenario_with(_FAULTED, faults=""))
        assert slow.failed == 0
        assert slow.crashes == 0
        assert slow.slowdowns > 0
        assert slow.latency.p99 > clean.latency.p99

    def test_zone_outage_kills_correlated_instances(self):
        report = simulate_serving_scenario(
            scenario_with(
                _FAULTED, faults="zones=2,zone_mtbf=0.5,zone_mttr=0.1"
            )
        )
        assert report.zone_outages > 0
        assert report.crashes > 0  # outage victims count as crashes

    def test_faults_off_is_the_plain_engine_bit_for_bit(self):
        plain = simulate_serving_scenario(scenario_with(_FAULTED, faults=""))
        spec = ServingScenario(
            qps=_FAULTED.qps,
            duration_seconds=_FAULTED.duration_seconds,
            instances=_FAULTED.instances,
            fleet=_FAULTED.fleet,
            routing=_FAULTED.routing,
            slo_seconds=_FAULTED.slo_seconds,
            seed=_FAULTED.seed,
        )
        baseline = simulate_serving_scenario(spec)
        assert plain.render() == baseline.render()
        assert plain.latency.p99 == baseline.latency.p99
        assert plain.completed == baseline.completed

    def test_autoscaler_rescues_a_faulted_fleet(self):
        report = simulate_serving_scenario(
            scenario_with(
                _FAULTED,
                autoscaler="target-util",
                min_instances=2,
                max_instances=8,
            )
        )
        assert report.crashes > 0
        assert report.completed > 0


class TestScenarioKnobs:
    def test_faults_string_normalized_to_canonical_form(self):
        scenario = scenario_with(_FAULTED, faults="mtbf=0.5, mttr=0.1")
        assert scenario.faults == "mtbf=0.5,mttr=0.1"

    def test_disabled_faults_normalize_to_empty(self):
        assert scenario_with(_FAULTED, faults="mtbf=0").faults == ""

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            scenario_with(_FAULTED, faults="nope=1")
        with pytest.raises(ValueError, match="retry"):
            scenario_with(_FAULTED, retry="sometimes")
        with pytest.raises(ValueError):
            scenario_with(_FAULTED, hedge_seconds=-0.01)

    def test_auto_label_names_the_reliability_stance(self):
        label = scenario_with(
            _FAULTED, retry="backoff", hedge_seconds=0.04
        ).display_label
        assert "faulted" in label
        assert "retry-backoff" in label
        assert "hedge40ms" in label


# ---------------------------------------------------------------------------
# Degraded-capacity admission
# ---------------------------------------------------------------------------
class TestAdmissionTightening:
    def test_budget_scales_with_capacity_fraction(self):
        controller = AdmissionController(mode="shed", queue_budget=10)
        assert controller.admit("t", 0.0, queue_depth=5).admitted
        # Half the fleet down -> budget 5 -> depth 5 is refused.
        refused = controller.admit(
            "t", 0.0, queue_depth=5, capacity_fraction=0.5
        )
        assert not refused.admitted and refused.reason == "queue"

    def test_budget_never_drops_below_one_slot(self):
        controller = AdmissionController(mode="shed", queue_budget=10)
        assert controller.admit(
            "t", 0.0, queue_depth=0, capacity_fraction=0.0
        ).admitted
        assert not controller.admit(
            "t", 0.0, queue_depth=1, capacity_fraction=0.0
        ).admitted

    def test_full_capacity_leaves_the_budget_alone(self):
        controller = AdmissionController(mode="shed", queue_budget=10)
        assert controller.admit(
            "t", 0.0, queue_depth=9, capacity_fraction=1.0
        ).admitted


# ---------------------------------------------------------------------------
# Typed-pool crash/restore accounting
# ---------------------------------------------------------------------------
class TestPoolCrashAccounting:
    def test_crash_of_busy_instance_bills_partial_busy_seconds(self):
        pool = TypedReplicaPool(FleetSpec.parse("default:2"))
        handle = pool.acquire(0, now=0.0)
        assert pool.busy_count == 1
        state = pool.crash(handle, now=0.5)
        assert state == "busy"
        assert pool.busy_count == 0
        assert pool.provisioned == 1
        usage = pool.usage(now=1.0)
        # Half a second busy on the crashed instance, never negative.
        assert usage[0].busy_seconds == pytest.approx(0.5)

    def test_crash_of_free_instance_only_sheds_capacity(self):
        pool = TypedReplicaPool(FleetSpec.parse("default:2"))
        victim = pool.instance_ids(0)[0]
        assert pool.crash((0, victim), now=0.25) == "free"
        assert pool.provisioned == 1
        assert pool.busy_count == 0

    def test_restore_reprovisions_with_warmup(self):
        pool = TypedReplicaPool(
            FleetSpec.parse("default:1"), default_warmup_seconds=0.1
        )
        victim = pool.instance_ids(0)[0]
        pool.crash((0, victim), now=0.0)
        assert pool.provisioned == 0
        handle, ready_at = pool.restore(0, now=1.0)
        assert pool.provisioned == 1
        assert ready_at == pytest.approx(1.1)
        assert pool.warming_count == 1
        pool.warmed(handle, now=ready_at)
        assert pool.ready_count == 1

    def test_instance_ids_never_reused_across_crashes(self):
        pool = TypedReplicaPool(FleetSpec.parse("default:1"))
        first = pool.instance_ids(0)[0]
        pool.crash((0, first), now=0.0)
        replacement, _ = pool.restore(0, now=0.1)
        assert replacement[1] != first


# ---------------------------------------------------------------------------
# N+k capacity planning
# ---------------------------------------------------------------------------
#: Fast probes: the heavy accelerator model is irrelevant to planner
#: correctness, and the linear model keeps the brute-force sweep cheap.
_PLAN_SERVICE = LinearServiceModel(base_seconds=0.004, per_node_seconds=2e-6)
_PLAN_SCENARIO = ServingScenario(
    qps=250.0, duration_seconds=1.0, slo_seconds=0.05, seed=3
)


class TestSurvivableFleets:
    def test_single_failure_reductions(self):
        spec = FleetSpec.parse("small:2,large:1")
        reduced = {f.render() for f in survivable_fleets(spec, 1)}
        assert reduced == {"small:1,large:1", "small:2"}

    def test_double_failure_reductions(self):
        spec = FleetSpec.parse("small:2,large:1")
        reduced = {f.render() for f in survivable_fleets(spec, 2)}
        assert reduced == {"small:1", "large:1"}

    def test_reductions_are_deduplicated_and_sorted(self):
        spec = FleetSpec.parse("small:3")
        assert [f.render() for f in survivable_fleets(spec, 1)] == ["small:2"]

    def test_validation(self):
        with pytest.raises(ValueError, match="failures"):
            survivable_fleets(FleetSpec.parse("small:2"), 0)
        with pytest.raises(ValueError, match="cannot survive"):
            survivable_fleets(FleetSpec.parse("small:2"), 2)


class TestAvailabilityPlanning:
    def _brute_force(self, availability: int) -> str | None:
        """Exhaustive N+k search the planner must agree with."""
        def feasible(fleet: FleetSpec) -> bool:
            record = run_serving_scenario(
                scenario_with(
                    _PLAN_SCENARIO,
                    fleet=fleet.render(),
                    routing="size_affinity",
                    autoscaler="none",
                    admission="none",
                ),
                service=_PLAN_SERVICE,
                store=None,
            )
            return meets_slo(record, 0.01)

        for fleet in enumerate_fleets(("small", "default"), 3, 4):
            if fleet.total() <= availability:
                continue
            if not feasible(fleet):
                continue
            if availability and not all(
                feasible(r) for r in survivable_fleets(fleet, availability)
            ):
                continue
            return fleet.render()
        return None

    @pytest.mark.parametrize("availability", [0, 1])
    def test_plan_matches_brute_force(self, availability: int):
        plan = plan_fleet(
            _PLAN_SCENARIO,
            candidate_types=("small", "default"),
            max_per_type=3,
            max_total=4,
            service=_PLAN_SERVICE,
            availability=availability,
        )
        assert plan.fleet == self._brute_force(availability)

    def test_availability_never_gets_cheaper(self):
        plans = {
            k: plan_fleet(
                _PLAN_SCENARIO,
                candidate_types=("small", "default"),
                max_per_type=3,
                max_total=4,
                service=_PLAN_SERVICE,
                availability=k,
            )
            for k in (0, 1)
        }
        assert plans[0].feasible and plans[1].feasible
        assert plans[1].cost_rate >= plans[0].cost_rate

    def test_probes_run_fault_free(self):
        plan = plan_fleet(
            scenario_with(_PLAN_SCENARIO, faults="default", retry="backoff"),
            candidate_types=("small",),
            max_per_type=2,
            service=_PLAN_SERVICE,
            availability=1,
        )
        for record in plan.evaluated.values():
            assert record.crashes == 0
            assert record.failed == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="availability"):
            plan_fleet(_PLAN_SCENARIO, availability=-1)


# ---------------------------------------------------------------------------
# Fig. 12
# ---------------------------------------------------------------------------
class TestFig12:
    def test_retry_plus_hedging_recovers_the_slo_attainment(self):
        from repro.experiments.fig12_availability import (
            RECOVERY_TARGET,
            run_fig12,
        )

        result = run_fig12(seed=0)
        hedged = result.point("faults/retry+hedge")
        bare = result.point("faults/no-retry")
        assert hedged.recovery >= RECOVERY_TARGET
        assert hedged.recovery > bare.recovery
        assert hedged.availability >= bare.availability
        assert result.point("fault-free").recovery == pytest.approx(1.0)
        # The capital alternative is priced, and never cheaper than N+0.
        assert result.plan_fleet_n1
        assert result.plan_cost_n1 >= result.plan_cost_n0
        rendered = result.table().render()
        assert "retry+hedge" in rendered
