"""Tests for configurable dimension-order routing (vertical-first ablation)
and the link-id routes the static scheduler walks."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schedule_tree as oracle
from repro.noc.routing import (
    dimension_order_route,
    link_route,
    route_links,
    route_plan,
)
from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.packet import Message
from repro.noc.topology import EJECT, INJECT, Mesh3D, link_id

TOPO = Mesh3D(8, 8, 3)
ORDERS = ["".join(p) for p in permutations("xyz")]


@st.composite
def mesh_routes(draw):
    """A mesh (width, height or tiers may be 1), an order and a router pair."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    topo = Mesh3D(width, height, draw(st.integers(1, 4)))
    src = draw(st.integers(0, topo.num_routers - 1))
    dst = draw(st.integers(0, topo.num_routers - 1))
    return topo, draw(st.sampled_from(ORDERS)), src, dst


class TestDimensionOrderRoute:
    def test_zxy_resolves_z_first(self):
        src = TOPO.router_id(0, 0, 0)
        dst = TOPO.router_id(2, 1, 2)
        path = dimension_order_route(TOPO, src, dst, "zxy")
        zs = [TOPO.coords(r)[2] for r in path]
        assert zs[:3] == [0, 1, 2]  # both vertical hops happen first
        assert all(z == 2 for z in zs[3:])

    def test_all_orders_minimal(self):
        src, dst = 3, 180
        expected = TOPO.distance(src, dst)
        for order in ("xyz", "zxy", "yxz", "zyx", "xzy", "yzx"):
            path = dimension_order_route(TOPO, src, dst, order)
            assert len(path) - 1 == expected, order

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            dimension_order_route(TOPO, 0, 1, "xxz")

    def test_tree_valid_for_zxy(self):
        dests = tuple(TOPO.tier_routers(0)[:8])
        tree = oracle.multicast_tree(
            TOPO, TOPO.router_id(4, 4, 1), dests, order="zxy"
        )
        heads = [l[1] for l in tree]
        assert len(heads) == len(set(heads))  # still a tree
        assert set(dests) <= set(heads)

    @given(
        src=st.integers(0, 191),
        dst=st.integers(0, 191),
        order=st.sampled_from(["xyz", "zxy", "yzx"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_route_property(self, src, dst, order):
        path = dimension_order_route(TOPO, src, dst, order)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == TOPO.distance(src, dst)


class TestStrideWalk:
    @given(case=mesh_routes())
    @settings(max_examples=200, deadline=None)
    def test_router_route_matches_hop_by_hop_walk(self, case):
        topo, order, src, dst = case
        assert dimension_order_route(topo, src, dst, order) == (
            oracle.dimension_order_route(topo, src, dst, order)
        )

    @given(case=mesh_routes())
    @settings(max_examples=200, deadline=None)
    def test_link_ids_name_the_router_route(self, case):
        topo, order, src, dst = case
        ids = link_route(route_plan(topo, order), src, dst)
        assert [topo.link_of(lid) for lid in ids] == route_links(
            dimension_order_route(topo, src, dst, order)
        )

    def test_local_port_ids(self):
        n = TOPO.num_routers
        assert TOPO.link_of(link_id(5, INJECT)) == (5 + n, 5) == TOPO.injection_link(5)
        assert TOPO.link_of(link_id(5, EJECT)) == (5, 5 + n) == TOPO.ejection_link(5)
        assert TOPO.is_local(TOPO.link_of(link_id(5, INJECT)))

    def test_plan_rejects_bad_order_and_routers(self):
        with pytest.raises(ValueError, match="permutation"):
            route_plan(TOPO, "xyy")
        with pytest.raises(IndexError):
            link_route(route_plan(TOPO), 0, TOPO.num_routers)


class TestSchedulerRoutingOrder:
    def test_config_accepts_order(self):
        cfg = NoCConfig(routing_order="zxy")
        assert cfg.routing_order == "zxy"
        with pytest.raises(ValueError):
            NoCConfig(routing_order="abc")

    def test_uncontended_latency_order_invariant(self):
        """Minimal routes have equal length, so a single message's latency
        is identical under any dimension order."""
        msg = Message(src=0, dests=(TOPO.router_id(5, 3, 2),), size_bits=640, msg_id=0)
        results = {
            order: StaticScheduler(TOPO, NoCConfig(routing_order=order))
            .simulate([msg])
            .makespan_cycles
            for order in ("xyz", "zxy")
        }
        assert results["xyz"] == results["zxy"]

    def test_orders_use_different_links(self):
        msgs = [
            Message(
                src=TOPO.router_id(0, 0, 1),
                dests=(TOPO.router_id(4, 4, 0),),
                size_bits=640,
                msg_id=0,
            )
        ]
        xyz = StaticScheduler(TOPO, NoCConfig(routing_order="xyz")).simulate(msgs)
        zxy = StaticScheduler(TOPO, NoCConfig(routing_order="zxy")).simulate(msgs)
        assert set(xyz.link_stats.flits) != set(zxy.link_stats.flits)
        assert xyz.total_flit_hops == zxy.total_flit_hops
