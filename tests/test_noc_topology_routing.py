"""Unit tests for mesh topology and deterministic routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.link_route import dimension_order_route
from oracles.schedule_tree import multicast_tree, tree_depth_order
from repro.noc.packet import Message
from repro.noc.schedule import StaticScheduler
from repro.noc.simulator import FlitSimulator
from repro.noc.topology import EJECT, INJECT, Mesh2D, Mesh3D, link_id, mesh_port


class TestMesh3D:
    topo = Mesh3D(8, 8, 3)

    def test_router_count(self):
        assert self.topo.num_routers == 192
        assert self.topo.routers_per_tier == 64

    def test_coords_roundtrip_exhaustive(self):
        for r in range(self.topo.num_routers):
            x, y, z = self.topo.coords(r)
            assert self.topo.router_id(x, y, z) == r

    def test_coords_out_of_range(self):
        with pytest.raises(IndexError):
            self.topo.coords(192)
        with pytest.raises(IndexError):
            self.topo.router_id(8, 0, 0)

    def test_corner_neighbors(self):
        assert len(self.topo.neighbors(0)) == 3  # corner of bottom tier

    def test_center_neighbors(self):
        center = self.topo.router_id(4, 4, 1)
        assert len(self.topo.neighbors(center)) == 6

    def test_neighbors_symmetric(self):
        for r in range(0, self.topo.num_routers, 7):
            for n in self.topo.neighbors(r):
                assert r in self.topo.neighbors(n)

    def test_link_count_formula(self):
        # Directed links: 2 * (links_x + links_y + links_z)
        w, h, t = 8, 8, 3
        expected = 2 * ((w - 1) * h * t + w * (h - 1) * t + w * h * (t - 1))
        assert sum(len(self.topo.neighbors(r)) for r in range(192)) == expected

    def _loads(self, src, dst):
        msg = Message(src=src, dests=(dst,), size_bits=32, msg_id=0)
        return StaticScheduler(self.topo).simulate([msg])

    def test_vertical_detection(self):
        a = self.topo.router_id(2, 2, 0)
        b = self.topo.router_id(2, 2, 1)
        c = self.topo.router_id(3, 2, 0)
        up = self._loads(a, b)
        assert up.link_loads[link_id(a, mesh_port(2, False))] == 2
        assert up.vertical_flit_hops == 2 and up.planar_flit_hops == 0
        east = self._loads(a, c)
        assert east.vertical_flit_hops == 0 and east.planar_flit_hops == 2

    def test_local_ports(self):
        result = self._loads(5, 6)
        loaded = {lid for lid, flits in enumerate(result.link_loads) if flits}
        assert loaded == {
            link_id(5, INJECT), link_id(5, mesh_port(0, False)), link_id(6, EJECT)
        }
        assert result.local_flit_hops == 4  # inject + eject, 2 flits each
        assert result.vertical_flit_hops == 0

    def test_local_port_range_check(self):
        msg = Message(src=0, dests=(192,), size_bits=32, msg_id=0)
        with pytest.raises(IndexError):
            FlitSimulator(self.topo).simulate([msg])

    def test_distance(self):
        a = self.topo.router_id(0, 0, 0)
        b = self.topo.router_id(3, 4, 2)
        assert self.topo.distance(a, b) == 9
        assert self.topo.distance(a, a) == 0

    def test_tier_routers(self):
        tier1 = self.topo.tier_routers(1)
        assert len(tier1) == 64
        assert all(self.topo.coords(r)[2] == 1 for r in tier1)
        with pytest.raises(IndexError):
            self.topo.tier_routers(3)

    def test_mesh2d_is_single_tier(self):
        flat = Mesh2D(4, 5)
        assert flat.tiers == 1
        assert flat.num_routers == 20

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Mesh3D(0, 8, 3)


class TestRouting:
    topo = Mesh3D(8, 8, 3)

    def test_route_endpoints(self):
        path = dimension_order_route(self.topo, 0, 100)
        assert path[0] == 0
        assert path[-1] == 100

    def test_route_is_minimal(self):
        for src, dst in [(0, 191), (5, 77), (64, 10)]:
            path = dimension_order_route(self.topo, src, dst)
            assert len(path) - 1 == self.topo.distance(src, dst)

    def test_route_steps_are_links(self):
        path = dimension_order_route(self.topo, 3, 150)
        for a, b in zip(path, path[1:]):
            assert b in self.topo.neighbors(a)

    def test_dimension_order(self):
        """X must be fully resolved before Y, and Y before Z."""
        src = self.topo.router_id(0, 0, 0)
        dst = self.topo.router_id(3, 2, 1)
        path = dimension_order_route(self.topo, src, dst)
        coords = [self.topo.coords(r) for r in path]
        xs = [c[0] for c in coords]
        # x changes first, then stays; y after; z last.
        assert xs == [0, 1, 2, 3, 3, 3, 3]
        assert [c[2] for c in coords][:-1] == [0] * 6

    def test_self_route(self):
        assert dimension_order_route(self.topo, 7, 7) == [7]

    def test_multicast_tree_is_tree(self):
        src = 0
        dests = tuple(self.topo.tier_routers(2)[:10])
        tree = multicast_tree(self.topo, src, dests)
        # Every link has exactly one parent entry; parents are in the tree.
        for link, parent in tree.items():
            assert parent is None or parent in tree
        # The set of link destinations is unique (no reconvergence).
        heads = [l[1] for l in tree]
        assert len(heads) == len(set(heads))

    def test_multicast_tree_reaches_all_dests(self):
        src = 5
        dests = (17, 100, 189)
        tree = multicast_tree(self.topo, src, dests)
        reached = {l[1] for l in tree}
        assert set(dests) <= reached

    def test_multicast_tree_smaller_than_unicast_paths(self):
        src = 0
        dests = tuple(self.topo.tier_routers(0)[1:17])
        tree = multicast_tree(self.topo, src, dests)
        total_unicast = sum(
            len(dimension_order_route(self.topo, src, d)) - 1 for d in dests
        )
        assert len(tree) < total_unicast

    def test_multicast_rejects_empty(self):
        with pytest.raises(ValueError):
            multicast_tree(self.topo, 0, ())

    def test_multicast_rejects_self(self):
        with pytest.raises(ValueError):
            multicast_tree(self.topo, 0, (0,))

    def test_tree_depth_order_parents_first(self):
        tree = multicast_tree(self.topo, 0, tuple(range(20, 30)))
        order = tree_depth_order(tree)
        seen = set()
        for link in order:
            parent = tree[link]
            if parent is not None:
                assert parent in seen
            seen.add(link)

    @given(src=st.integers(0, 191), dst=st.integers(0, 191))
    @settings(max_examples=60, deadline=None)
    def test_route_valid_property(self, src, dst):
        path = dimension_order_route(self.topo, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == self.topo.distance(src, dst)
        assert len(set(path)) == len(path)  # no revisits
