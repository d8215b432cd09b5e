"""Tests for configurable dimension-order routing (vertical-first ablation),
the batched link-id routes both NoC models read, and the reference
id -> tuple map (``oracles.link_tuples.link_of``) the differential and
golden tests compare per-link loads through."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schedule_tree as oracle
from oracles.link_route import link_route
from oracles.link_tuples import ejection_link, injection_link, is_local, link_of
from repro.noc.routing import dimension_order_route, link_paths, route_plan
from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.packet import Message
from repro.noc.topology import EJECT, INJECT, Mesh2D, Mesh3D, link_id, mesh_port

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


@st.composite
def route_batches(draw):
    """A mesh (planar, 1-wide and 1-row ones included), an order and a
    possibly empty batch of router pairs."""
    shape = draw(st.sampled_from(["3d", "planar", "one-wide", "one-row"]))
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if shape == "planar":
        topo = Mesh2D(width, height)
    elif shape == "one-wide":
        topo = Mesh3D(1, height, draw(st.integers(1, 4)))
    elif shape == "one-row":
        topo = Mesh3D(width, 1, draw(st.integers(1, 4)))
    else:
        topo = Mesh3D(width, height, draw(st.integers(1, 4)))
    routers = st.integers(0, topo.num_routers - 1)
    pairs = draw(st.lists(st.tuples(routers, routers), max_size=12))
    return topo, draw(st.sampled_from(ORDERS)), pairs, draw(st.booleans())


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
        ids, offsets = link_paths(route_plan(topo, order), [src], [dst])
        assert offsets.tolist() == [0, len(ids)]
        assert [link_of(topo, lid) for lid in ids.tolist()] == oracle.route_links(
            dimension_order_route(topo, src, dst, order)
        )

    @given(case=route_batches())
    @settings(max_examples=300, deadline=None)
    def test_batched_paths_match_route_at_a_time_walk(self, case):
        topo, order, pairs, local_ports = case
        plan = route_plan(topo, order)
        srcs = [src for src, _ in pairs]
        dsts = [dst for _, dst in pairs]
        ids, offsets = link_paths(plan, srcs, dsts, local_ports)
        assert len(offsets) == len(pairs) + 1 and offsets[0] == 0
        got = [ids[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
        want = [link_route(plan, src, dst) for src, dst in pairs]
        if local_ports:
            want = [
                [link_id(src, INJECT), *path, link_id(dst, EJECT)]
                for path, (src, dst) in zip(want, pairs)
            ]
        assert got == want

    def test_empty_batch(self):
        for local_ports in (False, True):
            ids, offsets = link_paths(route_plan(TOPO), [], [], local_ports)
            assert ids.size == 0 and offsets.tolist() == [0]

    def test_local_port_ids(self):
        n = TOPO.num_routers
        assert link_of(TOPO, link_id(5, INJECT)) == (5 + n, 5) == injection_link(TOPO, 5)
        assert link_of(TOPO, link_id(5, EJECT)) == (5, 5 + n) == ejection_link(TOPO, 5)
        assert is_local(TOPO, link_of(TOPO, link_id(5, INJECT)))

    def test_plan_rejects_bad_order_and_routers(self):
        with pytest.raises(ValueError, match="permutation"):
            route_plan(TOPO, "xyy")
        with pytest.raises(IndexError):
            link_paths(route_plan(TOPO), [0], [TOPO.num_routers])
        with pytest.raises(IndexError):
            link_paths(route_plan(TOPO), [-1, 0], [1, 2])


class TestLinkOf:
    """The reference id -> tuple map the golden digests are keyed through."""

    TOPO = Mesh3D(4, 4, 2)

    def test_in_mesh_ports(self):
        topo = self.TOPO
        assert link_of(topo, link_id(2, mesh_port(0, False))) == (2, 3)
        assert link_of(topo, link_id(3, mesh_port(0, True))) == (3, 2)
        assert link_of(topo, link_id(1, mesh_port(1, False))) == (1, 5)
        assert link_of(topo, link_id(0, mesh_port(2, False))) == (0, 16)
        assert link_of(topo, link_id(16, mesh_port(2, True))) == (16, 0)

    @pytest.mark.parametrize(
        "router,axis,negative",
        [
            (3, 0, False),  # +x off the last column (would wrap to router 4)
            (4, 0, True),  # -x off the first column
            (12, 1, False),  # +y off the last row
            (1, 1, True),  # -y off the first row
            (16, 2, False),  # +z off the top tier (would read as a local port)
            (0, 2, True),  # -z off the bottom tier
        ],
    )
    def test_ports_leaving_the_mesh_raise(self, router, axis, negative):
        with pytest.raises(IndexError, match="leaves the mesh"):
            link_of(self.TOPO, link_id(router, mesh_port(axis, negative)))

    @pytest.mark.parametrize("lid", [-1, link_id(32, 0), link_id(40, 0)])
    def test_ids_past_the_routers_raise(self, lid):
        with pytest.raises(IndexError, match="out of range"):
            link_of(self.TOPO, lid)

    def test_every_named_link_exists(self):
        topo = self.TOPO
        named = set()
        for lid in range(topo.num_routers * 8):
            try:
                named.add(link_of(topo, lid))
            except IndexError:
                continue
        routers = range(topo.num_routers)
        mesh = {(r, n) for r in routers for n in topo.neighbors(r)}
        local = {injection_link(topo, r) for r in routers}
        local |= {ejection_link(topo, r) for r in routers}
        assert named == mesh | local


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
        assert {lid for lid, n in enumerate(xyz.link_loads) if n} != {
            lid for lid, n in enumerate(zxy.link_loads) if n
        }
        assert xyz.total_flit_hops == zxy.total_flit_hops
