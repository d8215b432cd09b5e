"""Tests for the static scheduler and the flit-level simulator, including
their cross-validation (the two NoC models of docs/architecture.rst)."""

import pytest

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

TOPO = Mesh3D(8, 8, 3)
CFG = NoCConfig()


class TestMessage:
    def test_flit_count(self):
        assert Message(src=0, dests=(1,), size_bits=32, msg_id=0).num_flits(32) == 2
        assert Message(src=0, dests=(1,), size_bits=33, msg_id=0).num_flits(32) == 3

    def test_multicast_flag(self):
        assert Message(src=0, dests=(1, 2), size_bits=8, msg_id=0).is_multicast
        assert not Message(src=0, dests=(1,), size_bits=8, msg_id=0).is_multicast

    def test_validation(self):
        with pytest.raises(ValueError):
            Message(src=0, dests=(), size_bits=8)
        with pytest.raises(ValueError):
            Message(src=0, dests=(0,), size_bits=8)
        with pytest.raises(ValueError):
            Message(src=0, dests=(1, 1), size_bits=8)
        with pytest.raises(ValueError):
            Message(src=0, dests=(1,), size_bits=0)
        with pytest.raises(ValueError):
            Message(src=0, dests=(1,), size_bits=8, inject_cycle=-1)


class TestNoCConfig:
    def test_defaults_valid(self):
        cfg = NoCConfig()
        assert cfg.hop_cycles == 3
        assert cfg.cycle_time == pytest.approx(1 / 0.4e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoCConfig(flit_bits=0)
        with pytest.raises(ValueError):
            NoCConfig(clock_hz=0)
        with pytest.raises(ValueError):
            NoCConfig(router_cycles=0)
        with pytest.raises(ValueError):
            NoCConfig(schedule_mode="magic")


def analytic_latency(topo, cfg, msg):
    """Uncontended wormhole latency including local ports."""
    hops = topo.distance(msg.src, msg.dests[0]) + 2
    return msg.inject_cycle + hops * cfg.hop_cycles + msg.num_flits(cfg.flit_bits) - 1


class TestStaticScheduler:
    def test_single_message_analytic(self):
        msg = Message(src=0, dests=(TOPO.router_id(3, 2, 1),), size_bits=320, msg_id=0)
        result = StaticScheduler(TOPO, CFG).simulate([msg])
        assert result.makespan_cycles == analytic_latency(TOPO, CFG, msg)

    def test_injection_delay_respected(self):
        msg = Message(src=0, dests=(1,), size_bits=32, inject_cycle=100, msg_id=0)
        result = StaticScheduler(TOPO, CFG).simulate([msg])
        assert result.makespan_cycles == analytic_latency(TOPO, CFG, msg)

    def test_shared_destination_serializes(self):
        """Two messages into one ejection port cannot overlap fully."""
        msgs = [
            Message(src=1, dests=(0,), size_bits=3200, msg_id=0),
            Message(src=2, dests=(0,), size_bits=3200, msg_id=1),
        ]
        result = StaticScheduler(TOPO, CFG).simulate(msgs)
        flits = msgs[0].num_flits(CFG.flit_bits)
        solo = analytic_latency(TOPO, CFG, msgs[0])
        assert result.makespan_cycles >= solo + flits

    def test_disjoint_messages_parallel(self):
        msgs = [
            Message(src=0, dests=(1,), size_bits=320, msg_id=0),
            Message(src=100, dests=(101,), size_bits=320, msg_id=1),
        ]
        result = StaticScheduler(TOPO, CFG).simulate(msgs)
        assert result.makespan_cycles == max(
            analytic_latency(TOPO, CFG, m) for m in msgs
        )

    def test_multicast_beats_unicast(self):
        msg = Message(
            src=0, dests=tuple(TOPO.tier_routers(2)[:16]), size_bits=4096, msg_id=0
        )
        sched = StaticScheduler(TOPO, CFG)
        multicast = sched.simulate([msg], multicast=True)
        unicast = sched.simulate([msg], multicast=False)
        assert multicast.makespan_cycles < unicast.makespan_cycles
        assert multicast.total_flit_hops < unicast.total_flit_hops

    def test_multicast_crosses_each_tree_link_once(self):
        dests = (TOPO.router_id(1, 0, 0), TOPO.router_id(2, 0, 0))
        msg = Message(src=0, dests=dests, size_bits=320, msg_id=0)
        result = StaticScheduler(TOPO, CFG).simulate([msg], multicast=True)
        flits = msg.num_flits(CFG.flit_bits)
        # Tree: 2 router links + injection + 2 ejections = 5 links.
        assert result.total_flit_hops == 5 * flits

    def test_tag_finish(self):
        msgs = [
            Message(src=0, dests=(1,), size_bits=320, tag="a", msg_id=0),
            Message(src=0, dests=(10,), size_bits=320, tag="b", msg_id=1),
        ]
        result = StaticScheduler(TOPO, CFG).simulate(msgs)
        assert set(result.tag_finish) == {"a", "b"}
        assert result.tag_finish_seconds("a") > 0
        with pytest.raises(KeyError):
            result.tag_finish_seconds("zzz")

    def test_determinism(self):
        msgs = uniform_random_traffic(TOPO, 50, seed=7)
        a = StaticScheduler(TOPO, CFG).simulate(msgs)
        b = StaticScheduler(TOPO, CFG).simulate(msgs)
        assert a.makespan_cycles == b.makespan_cycles
        assert a.message_finish == b.message_finish

    def test_atomic_mode_conservative(self):
        msgs = uniform_random_traffic(TOPO, 60, size_bits=512, seed=3)
        pipelined = StaticScheduler(TOPO, NoCConfig(schedule_mode="pipelined"))
        atomic = StaticScheduler(TOPO, NoCConfig(schedule_mode="atomic"))
        assert (
            pipelined.simulate(msgs).makespan_cycles
            <= atomic.simulate(msgs).makespan_cycles
        )

    def test_energy_accounting(self):
        msg = Message(src=0, dests=(TOPO.router_id(0, 0, 1),), size_bits=320, msg_id=0)
        result = StaticScheduler(TOPO, CFG).simulate([msg])
        flits = msg.num_flits(CFG.flit_bits)
        assert result.vertical_flit_hops == flits  # one TSV hop
        assert result.local_flit_hops == 2 * flits  # inject + eject
        assert result.planar_flit_hops == 0
        expected = (
            flits * (CFG.router_energy_per_flit + CFG.vertical_link_energy_per_flit)
            + 2 * flits * (CFG.local_port_energy_per_flit + CFG.router_energy_per_flit)
        )
        assert result.energy_joules() == pytest.approx(expected)

    def test_makespan_at_least_bottleneck_load(self):
        msgs = hotspot_traffic(TOPO, 80, hotspot=0, seed=1)
        result = StaticScheduler(TOPO, CFG).simulate(msgs)
        assert result.makespan_cycles >= result.max_link_load

    def test_without_local_ports(self):
        cfg = NoCConfig(model_local_ports=False)
        msg = Message(src=0, dests=(TOPO.router_id(3, 2, 1),), size_bits=320, msg_id=0)
        result = StaticScheduler(TOPO, cfg).simulate([msg])
        hops = TOPO.distance(0, msg.dests[0])
        assert result.makespan_cycles == hops * cfg.hop_cycles + msg.num_flits(32) - 1


class TestFlitSimulator:
    def test_single_message_matches_scheduler(self):
        msg = Message(src=0, dests=(TOPO.router_id(5, 5, 2),), size_bits=640, msg_id=0)
        sched = StaticScheduler(TOPO, CFG).simulate([msg])
        sim = FlitSimulator(TOPO, CFG).simulate([msg])
        assert sim.makespan_cycles == sched.makespan_cycles

    def test_contended_not_worse_than_atomic(self):
        msgs = uniform_random_traffic(TOPO, 40, size_bits=512, seed=5)
        atomic = StaticScheduler(TOPO, NoCConfig(schedule_mode="atomic")).simulate(
            msgs, multicast=False
        )
        sim = FlitSimulator(TOPO, CFG).simulate(msgs)
        assert sim.makespan_cycles <= atomic.makespan_cycles

    def test_flit_hop_conservation(self):
        msgs = uniform_random_traffic(TOPO, 30, size_bits=256, seed=2)
        sched = StaticScheduler(TOPO, CFG).simulate(msgs, multicast=False)
        sim = FlitSimulator(TOPO, CFG).simulate(msgs)
        assert sim.total_flit_hops == sched.total_flit_hops

    def test_all_messages_delivered(self):
        msgs = uniform_random_traffic(TOPO, 25, seed=9)
        sim = FlitSimulator(TOPO, CFG).simulate(msgs)
        assert len(sim.message_finish) == 25

    def test_max_cycles_guard(self):
        msgs = uniform_random_traffic(TOPO, 10, size_bits=4096, seed=0)
        with pytest.raises(RuntimeError, match="exceeded"):
            FlitSimulator(TOPO, CFG).simulate(msgs, max_cycles=5)


class TestSimulationResultKeying:
    """Regression: results are keyed by the caller's (msg_id, dest), not by
    internally renumbered packet ids."""

    def test_shuffled_msg_ids_stay_addressable(self):
        # Disjoint messages with non-contiguous, out-of-order ids: each
        # finish time must land under the caller's id, at the uncontended
        # analytic latency.
        msgs = [
            Message(src=0, dests=(1,), size_bits=320, msg_id=42),
            Message(src=100, dests=(101,), size_bits=320, msg_id=7),
            Message(src=50, dests=(58,), size_bits=320, msg_id=1000),
        ]
        for simulator in (FlitSimulator, CycleFlitSimulator):
            result = simulator(TOPO, CFG).simulate(msgs)
            assert set(result.message_finish) == {(42, 1), (7, 101), (1000, 58)}
            for m in msgs:
                assert result.message_finish[(m.msg_id, m.dests[0])] == (
                    analytic_latency(TOPO, CFG, m)
                )

    def test_multicast_expansion_addressable_per_dest(self):
        msg = Message(src=0, dests=(3, 17, 80), size_bits=320, msg_id=9)
        result = FlitSimulator(TOPO, CFG).simulate([msg])
        assert set(result.message_finish) == {(9, 3), (9, 17), (9, 80)}
        by_msg = result.finish_by_message()
        assert by_msg == {9: max(result.message_finish.values())}

    def test_duplicate_keys_rejected(self):
        msgs = [
            Message(src=0, dests=(5,), size_bits=32, msg_id=1),
            Message(src=2, dests=(5,), size_bits=32, msg_id=1),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            FlitSimulator(TOPO, CFG).simulate(msgs)


class TestWatchdogAndEmptyInput:
    def test_empty_trace_zero_makespan(self):
        for simulator in (FlitSimulator, CycleFlitSimulator):
            result = simulator(TOPO, CFG).simulate([])
            assert result.makespan_cycles == 0
            assert result.message_finish == {}
            assert result.total_flit_hops == 0

    def test_watchdog_boundary_exact(self):
        """max_cycles permits exactly max_cycles cycles (0..max_cycles-1),
        not max_cycles + 1 as the old off-by-one guard did."""
        msg = Message(src=0, dests=(1,), size_bits=32, msg_id=0)
        # Tail flit crosses the last link hop_cycles before the reported
        # finish; the simulation needs cycles 0..last_tail inclusive.
        finish = FlitSimulator(TOPO, CFG).simulate([msg]).makespan_cycles
        last_tail = finish - CFG.hop_cycles
        for simulator in (FlitSimulator, CycleFlitSimulator):
            sim = simulator(TOPO, CFG)
            ok = sim.simulate([msg], max_cycles=last_tail + 1)
            assert ok.makespan_cycles == finish
            with pytest.raises(RuntimeError, match="exceeded"):
                sim.simulate([msg], max_cycles=last_tail)


class TestLinkUtilization:
    def test_with_local_ports_bounded(self):
        """Regression: numerator included local-port flits while the
        denominator counted only mesh links, so many-to-one traffic could
        report utilization > 1."""
        small = Mesh3D(2, 2, 1)
        msgs = [
            Message(src=s, dests=(0,), size_bits=4096, msg_id=i)
            for i, s in enumerate((1, 2, 3))
        ]
        result = FlitSimulator(small, CFG).simulate(msgs)
        util = result.utilization
        assert 0.0 < util <= 1.0
        # With local ports modelled the denominator counts the 8 directed
        # mesh links + 2N local ports.
        expected_links = 8 + 2 * small.num_routers
        assert util == pytest.approx(
            result.total_flit_hops / (expected_links * result.makespan_cycles)
        )

    def test_without_local_ports(self):
        small = Mesh3D(2, 2, 1)
        cfg = NoCConfig(model_local_ports=False)
        msgs = [Message(src=1, dests=(2,), size_bits=4096, msg_id=0)]
        result = FlitSimulator(small, cfg).simulate(msgs)
        util = result.utilization
        assert 0.0 < util <= 1.0
        assert util == pytest.approx(
            result.total_flit_hops / (8 * result.makespan_cycles)
        )

    def test_zero_makespan(self):
        assert FlitSimulator(TOPO, CFG).simulate([]).utilization == 0.0
        assert StaticScheduler(TOPO, CFG).simulate([]).utilization == 0.0


class TestTrafficGen:
    def test_uniform_properties(self):
        msgs = uniform_random_traffic(TOPO, 100, seed=0)
        assert len(msgs) == 100
        assert all(m.src != m.dests[0] for m in msgs)

    def test_uniform_deterministic(self):
        a = uniform_random_traffic(TOPO, 20, seed=4)
        b = uniform_random_traffic(TOPO, 20, seed=4)
        assert [(m.src, m.dests) for m in a] == [(m.src, m.dests) for m in b]

    def test_hotspot_fraction(self):
        msgs = hotspot_traffic(TOPO, 400, hotspot=7, hotspot_fraction=0.5, seed=0)
        hot = sum(1 for m in msgs if m.dests[0] == 7)
        assert 120 < hot < 280

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            hotspot_traffic(TOPO, 10, hotspot=0, hotspot_fraction=2.0)
        with pytest.raises(IndexError):
            hotspot_traffic(TOPO, 10, hotspot=999)

    def test_hotspot_tiny_mesh(self):
        """Non-hotspot draws need a third router to land on; with a pure
        hotspot fraction two routers suffice."""
        tiny = Mesh3D(2, 1, 1)
        with pytest.raises(ValueError, match="3 routers"):
            hotspot_traffic(tiny, 5, hotspot=0, hotspot_fraction=0.5)
        msgs = hotspot_traffic(tiny, 5, hotspot=0, hotspot_fraction=1.0)
        assert all(m.dests == (0,) and m.src == 1 for m in msgs)

    def test_many_to_one_to_many_shape(self):
        sources = TOPO.tier_routers(1)[:4]
        sinks = TOPO.tier_routers(0)[:3]
        msgs = many_to_one_to_many_traffic(TOPO, sources, sinks)
        gather = [m for m in msgs if m.tag == "gather"]
        scatter = [m for m in msgs if m.tag == "scatter"]
        assert len(gather) == 4
        assert len(scatter) == 3
        assert all(set(m.dests) == set(sinks) for m in gather)
        assert all(set(m.dests) == set(sources) for m in scatter)

    def test_many_to_one_requires_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            many_to_one_to_many_traffic(TOPO, [0, 1], [1, 2])

    def test_no_replies(self):
        msgs = many_to_one_to_many_traffic(TOPO, [64], [0], replies=False)
        assert len(msgs) == 1

    def test_hotspot_inject_window(self):
        """Regression: hotspot_traffic silently dropped the inject_window
        knob that uniform_random_traffic has."""
        msgs = hotspot_traffic(TOPO, 200, hotspot=7, seed=0, inject_window=500)
        injects = [m.inject_cycle for m in msgs]
        assert all(0 <= i <= 500 for i in injects)
        assert max(injects) > 0  # the window is actually used
        flat = hotspot_traffic(TOPO, 50, hotspot=7, seed=0)
        assert all(m.inject_cycle == 0 for m in flat)

    def test_hotspot_fraction_not_inflated(self):
        """Regression: the non-hotspot branch could still draw the hotspot,
        inflating the effective fraction beyond the requested one."""
        msgs = hotspot_traffic(TOPO, 600, hotspot=7, hotspot_fraction=0.25, seed=0)
        hot = sum(1 for m in msgs if m.dests[0] == 7)
        # Binomial(600, 0.25): mean 150, sigma ~10.6 — a +/-4 sigma band.
        # Before the fix the uniform branch added ~450/192 ~ 2.3 extra
        # hotspot hits in expectation *per seed* on top of any skew.
        assert 107 <= hot <= 193

    def test_hotspot_deterministic(self):
        a = hotspot_traffic(TOPO, 30, hotspot=3, seed=12, inject_window=100)
        b = hotspot_traffic(TOPO, 30, hotspot=3, seed=12, inject_window=100)
        assert [(m.src, m.dests, m.inject_cycle) for m in a] == [
            (m.src, m.dests, m.inject_cycle) for m in b
        ]

    def test_many_to_one_to_many_inject_window(self):
        sources = TOPO.tier_routers(1)[:4]
        sinks = TOPO.tier_routers(0)[:3]
        msgs = many_to_one_to_many_traffic(
            TOPO, sources, sinks, seed=5, inject_window=1000
        )
        injects = [m.inject_cycle for m in msgs]
        assert all(0 <= i <= 1000 for i in injects)
        assert max(injects) > 0
        flat = many_to_one_to_many_traffic(TOPO, sources, sinks, seed=5)
        assert all(m.inject_cycle == 0 for m in flat)
