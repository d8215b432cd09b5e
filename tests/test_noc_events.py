"""Differential tests: event-driven engine vs. cycle-stepped reference.

``FlitSimulator`` (which runs repro.noc.events) must be *bit-identical* to
the cycle-stepped oracle in ``tests/oracles/flit_cycle.py``: same
per-(msg_id, dest) finish cycles, same makespan, same per-link flit
counts.  This suite sweeps >= 50 seeded traces across uniform, hotspot,
and many-to-one-to-many patterns on meshes up to 8x8x4, and cross-checks
the engine against the static schedule analyzer (the same flits on every
link as its unicast schedule; the dynamic simulator never beats the
atomic static bound the wrong way).
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.flit_cycle import CycleFlitSimulator
from repro.noc.packet import Message
from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.simulator import FlitSimulator
from repro.noc.topology import Mesh3D
from repro.noc.traffic_gen import (
    hotspot_traffic,
    many_to_one_to_many_traffic,
    uniform_random_traffic,
)

MESHES = {
    "4x4x2": Mesh3D(4, 4, 2),
    "6x6x3": Mesh3D(6, 6, 3),
    "8x8x4": Mesh3D(8, 8, 4),
}

UNIFORM_TRACES = [
    (mesh, seed, window)
    for mesh in MESHES
    for seed in range(4)
    for window in (0, 150)
]

HOTSPOT_TRACES = [
    (mesh, seed, fraction)
    for mesh in ("4x4x2", "8x8x4")
    for seed in range(4)
    for fraction in (0.3, 0.7)
]

M2O2M_TRACES = [
    (mesh, seed, window)
    for mesh in MESHES
    for seed in (0, 1)
    for window in (0, 400)
]


@st.composite
def generated_traces(draw):
    """A mesh (one axis may be 1), NoC timing knobs, and unicast/multicast
    messages spread over an injection window."""
    topo = Mesh3D(
        draw(st.integers(2, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    )
    config = NoCConfig(
        flit_bits=draw(st.sampled_from([16, 32, 64])),
        router_cycles=draw(st.integers(1, 3)),
        link_cycles=draw(st.integers(1, 2)),
        model_local_ports=draw(st.booleans()),
        routing_order=draw(st.sampled_from(["xyz", "zxy", "yzx"])),
    )
    n = topo.num_routers
    window = draw(st.integers(0, 200))
    messages = []
    for msg_id in range(draw(st.integers(1, 20))):
        src = draw(st.integers(0, n - 1))
        offsets = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=4))
        messages.append(
            Message(
                src=src,
                dests=tuple(sorted((src + off) % n for off in offsets)),
                size_bits=draw(st.integers(1, 1024)),
                inject_cycle=draw(st.integers(0, window)),
                msg_id=msg_id,
            )
        )
    return topo, config, messages


def assert_backends_identical(topo, messages, config=None):
    """Run the library and the cycle oracle, assert bit-identical results;
    return both."""
    event = FlitSimulator(topo, config).simulate(messages)
    cycle = CycleFlitSimulator(topo, config).simulate(messages)
    assert event.message_finish == cycle.message_finish
    assert event.makespan_cycles == cycle.makespan_cycles
    assert event.link_loads == cycle.link_loads
    return event, cycle


class TestUniformDifferential:
    @pytest.mark.parametrize("mesh,seed,window", UNIFORM_TRACES)
    def test_bit_identical(self, mesh, seed, window):
        topo = MESHES[mesh]
        msgs = uniform_random_traffic(
            topo, 30, size_bits=512, seed=seed, inject_window=window
        )
        event, _ = assert_backends_identical(topo, msgs)
        # Static cross-check: both models deliver the same flit work, and
        # the dynamic simulator never exceeds the conservative atomic bound.
        static = StaticScheduler(topo).simulate(msgs, multicast=False)
        assert event.total_flit_hops == static.total_flit_hops
        atomic = StaticScheduler(topo, NoCConfig(schedule_mode="atomic")).simulate(
            msgs, multicast=False
        )
        assert event.makespan_cycles <= atomic.makespan_cycles


class TestHotspotDifferential:
    @pytest.mark.parametrize("mesh,seed,fraction", HOTSPOT_TRACES)
    def test_bit_identical(self, mesh, seed, fraction):
        topo = MESHES[mesh]
        msgs = hotspot_traffic(
            topo,
            30,
            hotspot=topo.num_routers // 2,
            hotspot_fraction=fraction,
            seed=seed,
            inject_window=100,
        )
        event, _ = assert_backends_identical(topo, msgs)
        static = StaticScheduler(topo).simulate(msgs, multicast=False)
        assert event.total_flit_hops == static.total_flit_hops


class TestManyToOneToManyDifferential:
    @pytest.mark.parametrize("mesh,seed,window", M2O2M_TRACES)
    def test_bit_identical(self, mesh, seed, window):
        topo = MESHES[mesh]
        sources = topo.tier_routers(topo.tiers - 1)[:6]
        sinks = topo.tier_routers(0)[:3]
        msgs = many_to_one_to_many_traffic(
            topo, sources, sinks, size_bits=512, seed=seed, inject_window=window
        )
        event, _ = assert_backends_identical(topo, msgs)
        # Multicast expansion: every (msg_id, dest) pair is addressable.
        assert set(event.message_finish) == {
            (m.msg_id, dst) for m in msgs for dst in m.dests
        }


class TestGeneratedDifferential:
    @given(generated_traces())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_bit_identical_on_generated_traces(self, trace):
        topo, config, msgs = trace
        assert_backends_identical(topo, msgs, config)


@st.composite
def small_unicast_cases(draw):
    """A small mesh (any axis may be 1), any dimension order, local ports
    on or off, and a few unicast/multicast messages."""
    topo = Mesh3D(
        draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    )
    if topo.num_routers < 2:
        topo = Mesh3D(2, topo.height, topo.tiers)
    config = NoCConfig(
        model_local_ports=draw(st.booleans()),
        routing_order=draw(st.sampled_from(["".join(p) for p in permutations("xyz")])),
    )
    n = topo.num_routers
    messages = []
    for msg_id in range(draw(st.integers(0, 6))):
        src = draw(st.integers(0, n - 1))
        offsets = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=3))
        messages.append(
            Message(
                src=src,
                dests=tuple((src + off) % n for off in offsets),
                size_bits=draw(st.integers(1, 256)),
                inject_cycle=draw(st.integers(0, 30)),
                msg_id=msg_id,
            )
        )
    return topo, config, messages


class TestPerLinkLoadsMatchStatic:
    @given(small_unicast_cases())
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_same_flits_on_every_link(self, case):
        """One route builder feeds both models: the flit simulator loads
        every link exactly as the static unicast schedule does."""
        topo, config, msgs = case
        static = StaticScheduler(topo, config).simulate(msgs, multicast=False)
        event = FlitSimulator(topo, config).simulate(msgs)
        assert event.link_loads == static.link_loads


class TestTraceCountFloor:
    def test_at_least_fifty_traces(self):
        """The acceptance criterion: >= 50 seeded differential traces."""
        assert len(UNIFORM_TRACES) + len(HOTSPOT_TRACES) + len(M2O2M_TRACES) >= 50


class TestBackendSemantics:
    def test_routing_orders_agree(self):
        topo = MESHES["6x6x3"]
        msgs = uniform_random_traffic(topo, 20, seed=11)
        for order in ("xyz", "zxy"):
            assert_backends_identical(topo, msgs, NoCConfig(routing_order=order))

    def test_without_local_ports(self):
        topo = MESHES["4x4x2"]
        msgs = uniform_random_traffic(topo, 25, seed=3, inject_window=50)
        assert_backends_identical(topo, msgs, NoCConfig(model_local_ports=False))

    def test_watchdog_agrees(self):
        topo = MESHES["4x4x2"]
        msgs = uniform_random_traffic(topo, 10, size_bits=4096, seed=0)
        for simulator in (FlitSimulator, CycleFlitSimulator):
            with pytest.raises(RuntimeError, match="exceeded"):
                simulator(topo).simulate(msgs, max_cycles=5)

    def test_single_packet_sparse_time_is_cheap(self):
        """A packet injected very late is O(hops) for the event engine —
        the whole point of the rebuild (the cycle oracle would crawl)."""
        topo = MESHES["8x8x4"]
        from repro.noc.packet import Message

        msg = Message(
            src=0, dests=(topo.num_routers - 1,), size_bits=256,
            inject_cycle=5_000_000, msg_id=0,
        )
        result = FlitSimulator(topo).simulate([msg], max_cycles=10_000_000)
        cfg = NoCConfig()
        hops = topo.distance(0, topo.num_routers - 1) + 2  # + local ports
        assert result.makespan_cycles == (
            5_000_000 + hops * cfg.hop_cycles + msg.num_flits(cfg.flit_bits) - 1
        )
