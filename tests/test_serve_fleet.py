"""Typed instances, fleet specs, and the heterogeneous replica pool."""

import pytest

from repro.serve.autoscale import allocate_fleet
from repro.serve.fleet import (
    INSTANCE_TYPES,
    FleetSpec,
    InstanceType,
    TypedReplicaPool,
    get_instance_type,
)


class TestInstanceType:
    def test_registry_has_the_standard_flavors(self):
        assert set(INSTANCE_TYPES) == {"small", "default", "large"}
        assert INSTANCE_TYPES["default"].service_scale == 1.0
        assert INSTANCE_TYPES["default"].cost_per_second == 1.0
        # large is faster but costlier; small the reverse.
        assert INSTANCE_TYPES["large"].service_scale < 1.0
        assert INSTANCE_TYPES["large"].cost_per_second > 1.0
        assert INSTANCE_TYPES["small"].service_scale > 1.0
        assert INSTANCE_TYPES["small"].cost_per_second < 1.0

    def test_cost_per_capacity_orders_small_cheapest(self):
        # small is the most cost-efficient per unit of work, large the
        # least — the premise of cost-weighted scale-out.
        ranked = sorted(
            INSTANCE_TYPES.values(), key=lambda t: t.cost_per_capacity
        )
        assert [t.name for t in ranked] == ["small", "default", "large"]

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType(name="")
        with pytest.raises(ValueError):
            InstanceType(name="x", service_scale=0.0)
        with pytest.raises(ValueError):
            InstanceType(name="x", cost_per_second=0.0)
        with pytest.raises(ValueError):
            InstanceType(name="x", max_batch=-1)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown instance type"):
            get_instance_type("gpu9000")


class TestFleetSpec:
    def test_parse_render_round_trip(self):
        spec = FleetSpec.parse("small:2, large:1")
        assert spec.slices == (("small", 2), ("large", 1))
        assert spec.render() == "small:2,large:1"
        assert FleetSpec.parse(spec.render()) == spec

    def test_totals_counts_and_cost(self):
        spec = FleetSpec.parse("small:2,large:1")
        assert spec.total() == 3
        assert spec.counts() == {"small": 2, "large": 1}
        assert spec.cost_rate() == pytest.approx(2 * 0.5 + 2.5)
        assert [t.name for t in spec.types()] == ["small", "large"]

    def test_declaration_order_preserved(self):
        # Order is semantic (dispatch / allocation tie-break): no sorting.
        assert FleetSpec.parse("large:1,small:2").slices == (
            ("large", 1),
            ("small", 2),
        )

    def test_is_default_only_for_pure_default(self):
        assert FleetSpec.homogeneous("default", 3).is_default
        assert not FleetSpec.homogeneous("large", 3).is_default
        assert not FleetSpec.parse("default:1,small:1").is_default

    def test_parse_rejects_malformed_specs(self):
        for bad in ("", "  ", "small", "small:x", "small:1,small:2", "nope:1"):
            with pytest.raises(ValueError):
                FleetSpec.parse(bad)

    def test_zero_count_slice_allowed_but_empty_fleet_is_not(self):
        assert FleetSpec.parse("small:0,large:1").total() == 1
        with pytest.raises(ValueError):
            FleetSpec.parse("small:0")


class TestAllocateFleet:
    TYPES = (
        INSTANCE_TYPES["small"],
        INSTANCE_TYPES["default"],
        INSTANCE_TYPES["large"],
    )

    def test_identity_when_total_matches(self):
        assert allocate_fleet(4, self.TYPES, [2, 1, 1]) == [2, 1, 1]

    def test_total_always_honored(self):
        for total in range(1, 12):
            counts = allocate_fleet(total, self.TYPES, [2, 1, 1])
            assert sum(counts) == total
            assert all(c >= 0 for c in counts)

    def test_grow_is_proportional_with_cheap_remainder(self):
        # Doubling a 2:1:1 fleet keeps the composition exact.
        assert allocate_fleet(8, self.TYPES, [2, 1, 1]) == [4, 2, 2]
        # An odd remainder lands on the most cost-efficient slice (small).
        assert allocate_fleet(5, self.TYPES, [2, 1, 1]) == [3, 1, 1]

    def test_zero_weight_slices_never_receive_instances(self):
        types = (INSTANCE_TYPES["small"], INSTANCE_TYPES["large"])
        counts = allocate_fleet(5, types, [0, 2])
        assert counts[0] == 0
        assert sum(counts) == 5

    def test_deterministic(self):
        a = allocate_fleet(7, self.TYPES, [1, 2, 1])
        assert a == allocate_fleet(7, self.TYPES, [1, 2, 1])

    def test_validation(self):
        with pytest.raises(ValueError, match="positive sum"):
            allocate_fleet(3, self.TYPES, [0, 0, 0])
        with pytest.raises(ValueError, match="positive sum"):
            allocate_fleet(3, self.TYPES, [2, -1, 1])
        with pytest.raises(ValueError, match="align"):
            allocate_fleet(3, self.TYPES, [1, 1])
        with pytest.raises(ValueError, match="total"):
            allocate_fleet(-1, self.TYPES, [1, 1, 1])


class TestTypedReplicaPool:
    def spec(self):
        return FleetSpec.parse("small:2,large:1")

    def test_aggregates_match_slice_sums(self):
        fleet = TypedReplicaPool(self.spec())
        assert fleet.provisioned == 3
        assert fleet.target_size == 3
        assert fleet.ready_count == 3
        assert fleet.busy_count == 0
        assert fleet.has_free()
        assert fleet.is_typed

    def test_default_fleet_is_not_typed(self):
        fleet = TypedReplicaPool(FleetSpec.homogeneous("default", 2))
        assert not fleet.is_typed
        # Pre-fleet traces used bare integer instance ids.
        assert fleet.label((0, 1)) == 1

    def test_acquire_release_by_handle(self):
        fleet = TypedReplicaPool(self.spec())
        handle = fleet.acquire(1, now=0.0)  # slice 1 = the large slice
        assert handle == (1, 0)
        assert fleet.busy_count == 1
        assert fleet.label(handle) == "large:0"
        assert fleet.release(handle, now=1.0)
        assert fleet.busy_count == 0

    def test_billing_integrates_per_type_cost(self):
        fleet = TypedReplicaPool(self.spec())
        # 2 small @ $0.5/s + 1 large @ $2.5/s, all billed for 2 s.
        assert fleet.cost_dollars(2.0) == pytest.approx(2 * 0.5 * 2 + 2.5 * 2)
        usage = {u.name: u for u in fleet.usage(2.0)}
        assert usage["small"].instance_seconds == pytest.approx(4.0)
        assert usage["large"].cost_dollars == pytest.approx(5.0)
        assert usage["small"].busy_seconds == 0.0

    def test_busy_seconds_accrue_only_while_busy(self):
        fleet = TypedReplicaPool(self.spec())
        handle = fleet.acquire(0, now=1.0)
        fleet.release(handle, now=3.0)
        usage = {u.name: u for u in fleet.usage(4.0)}
        assert usage["small"].busy_seconds == pytest.approx(2.0)
        assert usage["small"].batches == 1
        assert usage["large"].busy_seconds == 0.0

    def test_scale_out_prefers_cheap_capacity(self):
        fleet = TypedReplicaPool(self.spec())
        started = fleet.scale_to(5, now=0.0)
        assert fleet.target_size == 5
        # 3 -> 5 with weights (2, 1): both new instances are small.
        assert {
            name for name, _, _ in fleet.last_scale_detail
        } == {"small"}
        assert all(ready == 0.0 for _, ready in started)  # no warm-up

    def test_scale_in_can_empty_a_slice_but_not_the_fleet(self):
        fleet = TypedReplicaPool(self.spec())
        fleet.scale_to(1, now=0.0)
        assert fleet.target_size == 1
        with pytest.raises(ValueError):
            fleet.scale_to(0, now=0.0)

    def test_every_type_uses_the_engine_warmup(self):
        spec = FleetSpec.parse("default:1,large:1")
        fleet = TypedReplicaPool(spec, default_warmup_seconds=0.5)
        for s in fleet.slices:
            assert s.pool.warmup_seconds == 0.5


class TestFleetWithTotal:
    """A declared composition rescaled to a new total: ``allocate_fleet``
    over the spec's counts, which the live pool follows."""

    def test_rescale_preserves_composition(self):
        spec = FleetSpec.parse("small:2,large:1")
        declared = list(spec.counts().values())
        assert allocate_fleet(6, spec.types(), declared) == [4, 2]
        assert sum(allocate_fleet(1, spec.types(), declared)) == 1

    def test_matches_live_pool_allocation(self):
        # Every total the live pool is scaled to splits as allocate_fleet
        # splits it over the declared counts, whatever the path to it.
        spec = FleetSpec.parse("small:2,large:1")
        fleet = TypedReplicaPool(spec)
        for total in (6, 1, 4, 9, 3):
            fleet.scale_to(total, now=0.0)
            live = [s.pool.target_size for s in fleet.slices]
            assert live == allocate_fleet(total, spec.types(), [2, 1])
