"""Routing policies: determinism, balancing, and type affinity."""

import pytest

from repro.serve.arrivals import Request
from repro.serve.fleet import INSTANCE_TYPES, FleetSpec
from repro.serve.routing import (
    ROUTING_POLICIES,
    SHARED,
    PowerOfTwoRouting,
    SharedQueueRouting,
    SizeAffinityRouting,
    TenantPinRouting,
    make_routing,
)

SMALL_LARGE = (INSTANCE_TYPES["small"], INSTANCE_TYPES["large"])
ALL_TYPES = tuple(INSTANCE_TYPES[n] for n in ("small", "default", "large"))


def req(graph_size=256, tenant="a", t=0.0, rid=0):
    return Request(
        tenant=tenant, graph_size=graph_size, arrival_time=t, request_id=rid
    )


class TestRegistry:
    def test_registered_policies(self):
        assert set(ROUTING_POLICIES) == {
            "shared_queue", "size_affinity", "po2", "tenant_pin",
        }

    def test_make_routing_dispatch_and_kwargs(self):
        policy = make_routing("size_affinity", SMALL_LARGE)
        assert isinstance(policy, SizeAffinityRouting)
        # The size threshold is a class constant, not a constructor knob.
        with pytest.raises(TypeError):
            make_routing("size_affinity", SMALL_LARGE, large_threshold=512)
        with pytest.raises(ValueError, match="unknown routing"):
            make_routing("random", SMALL_LARGE)

    def test_policies_need_at_least_one_type(self):
        with pytest.raises(ValueError):
            SharedQueueRouting(())


class TestSharedQueue:
    def test_single_target_for_everyone(self):
        policy = SharedQueueRouting(ALL_TYPES)
        assert policy.targets() == (SHARED,)
        for t in ALL_TYPES:
            assert policy.serves(t.name) == (SHARED,)
        assert policy.route(req(4096), lambda t: 0) == SHARED


class TestSizeAffinity:
    def test_fast_target_is_lowest_service_scale(self):
        policy = SizeAffinityRouting(ALL_TYPES)
        assert policy.fast_target == "large"
        assert policy.small_targets == ("small", "default")

    def test_large_graphs_route_to_the_fast_type(self):
        policy = SizeAffinityRouting(SMALL_LARGE)
        deep_fast = {"small": 0, "large": 99}.__getitem__
        # Affinity, not balancing: even a deep fast queue gets the
        # large graphs — their service time dominates their latency.
        assert policy.route(req(4096), deep_fast) == "large"
        assert policy.large_threshold == 2048
        assert policy.route(req(2048), deep_fast) == "large"
        assert policy.route(req(2047), deep_fast) == "small"

    def test_small_graphs_join_the_shallowest_slow_queue(self):
        policy = SizeAffinityRouting(ALL_TYPES)
        depths = {"small": 5, "default": 2, "large": 0}
        assert policy.route(req(256), depths.__getitem__) == "default"
        depths["default"] = 9
        assert policy.route(req(256), depths.__getitem__) == "small"

    def test_single_type_routes_everything_to_it(self):
        policy = SizeAffinityRouting((INSTANCE_TYPES["large"],))
        assert policy.route(req(1), lambda t: 0) == "large"
        assert policy.route(req(4096), lambda t: 0) == "large"

    def test_each_type_drains_only_its_own_queue(self):
        policy = SizeAffinityRouting(ALL_TYPES)
        assert policy.targets() == ("small", "default", "large")
        assert policy.serves("small") == ("small",)
        assert policy.serves("large") == ("large",)


class TestPowerOfTwo:
    def depths(self, mapping, queried):
        def depth_of(target):
            queried.append(target)
            return mapping[target]

        return depth_of

    def test_picks_the_shallower_of_the_sampled_pair(self):
        mapping = {"small": 7, "default": 3, "large": 5}
        policy = PowerOfTwoRouting(ALL_TYPES, seed=0)
        for i in range(200):
            queried = []
            pick = policy.route(req(rid=i), self.depths(mapping, queried))
            assert len(queried) == 2
            # Never the strictly deeper queue of the sampled pair.
            assert mapping[pick] == min(mapping[t] for t in queried)

    def test_deterministic_under_a_fixed_seed(self):
        mapping = {"small": 1, "default": 1, "large": 1}

        def picks(seed):
            policy = PowerOfTwoRouting(ALL_TYPES, seed=seed)
            return [
                policy.route(req(rid=i), mapping.__getitem__)
                for i in range(50)
            ]

        assert picks(3) == picks(3)
        assert picks(3) != picks(4)  # the seed actually matters

    def test_depth_ties_break_to_declaration_order(self):
        policy = PowerOfTwoRouting(SMALL_LARGE, seed=0)
        for i in range(50):
            assert policy.route(req(rid=i), lambda t: 0) == "small"

    def test_single_type_short_circuits(self):
        policy = PowerOfTwoRouting((INSTANCE_TYPES["small"],), seed=0)
        assert policy.route(req(), lambda t: 0) == "small"


class TestTenantPin:
    def test_first_seen_round_robin(self):
        policy = TenantPinRouting(SMALL_LARGE)
        assert policy.route(req(tenant="t0"), lambda t: 0) == "small"
        assert policy.route(req(tenant="t1"), lambda t: 0) == "large"
        assert policy.route(req(tenant="t2"), lambda t: 0) == "small"

    def test_pins_are_sticky(self):
        policy = TenantPinRouting(SMALL_LARGE)
        first = policy.route(req(tenant="t0", rid=0), lambda t: 0)
        for i in range(1, 20):
            assert (
                policy.route(req(tenant="t0", rid=i, graph_size=4096), lambda t: 0)
                == first
            )
        assert policy.pin_for("t0") == first


class TestRoutedServing:
    """Routing inside the full engine: determinism and batch ceilings."""

    def scenario(self, **overrides):
        from repro.serve.scenario import ServingScenario

        params = dict(
            dataset="ppi",
            scale=0.05,
            qps=100.0,
            duration_seconds=0.5,
            num_tenants=3,
            max_batch=8,
            fleet="small:2,large:1",
            seed=1,
        )
        params.update(overrides)
        return ServingScenario(**params)

    @pytest.mark.parametrize(
        "routing", ["size_affinity", "po2", "tenant_pin"]
    )
    def test_repeated_runs_are_identical(self, routing):
        from repro.serve.scenario import run_serving_scenario

        a = run_serving_scenario(self.scenario(routing=routing))
        b = run_serving_scenario(self.scenario(routing=routing))
        assert a.metrics() == b.metrics()
        assert (a.fleet, a.routing) == (b.fleet, b.routing)

    def test_size_affinity_respects_the_small_batch_ceiling(self):
        from repro.serve.scenario import simulate_serving_scenario

        report = simulate_serving_scenario(
            self.scenario(routing="size_affinity", qps=200.0)
        )
        usage = {u.name: u for u in report.per_type}
        # The aggregate busy integral is maintained incrementally in the
        # typed pool; a drifting cache shows up here as utilization
        # outside [0, 1].
        assert 0.0 <= report.utilization <= 1.0
        small = usage["small"]
        assert small.batches > 0
        # small's hardware ceiling is 4 even though the scheduler's
        # max_batch is 8: no batch may exceed it, so on average too.
        assert small.completed <= 4 * small.batches
        assert usage["large"].completed > 0

    @pytest.mark.parametrize(
        "faults",
        [
            "default",
            "mtbf=0.2,mttr=0.05",
            "zones=2,zone_mtbf=0.3,zone_mttr=0.1",
        ],
    )
    def test_crash_paths_keep_utilization_in_bounds(self, faults):
        from repro.serve.scenario import simulate_serving_scenario

        report = simulate_serving_scenario(
            self.scenario(routing="size_affinity", qps=200.0, faults=faults)
        )
        # Crash teardown accrues the interrupted instance's partial busy
        # time and shrinks the cached aggregates in lockstep; a double
        # bill or a negative cached busy count shows up here as
        # utilization outside [0, 1] (per slice too).
        assert report.crashes > 0
        assert 0.0 <= report.utilization <= 1.0
        for usage in report.per_type:
            assert usage.busy_seconds >= 0.0
            assert usage.instance_seconds >= 0.0
            assert usage.busy_seconds <= usage.instance_seconds + 1e-9

    def test_tenant_pin_keeps_each_tenant_on_one_type(self):
        from repro.serve.scenario import simulate_serving_scenario

        report = simulate_serving_scenario(
            self.scenario(routing="tenant_pin", num_tenants=2)
        )
        usage = {u.name: u for u in report.per_type}
        # Two tenants, two types: both slices see traffic.
        assert usage["small"].completed > 0
        assert usage["large"].completed > 0
