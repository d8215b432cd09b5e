"""Flit-level wormhole/cut-through simulator.

Used to validate the static schedule analyzer: for an uncontended packet
both models give *identical* latencies (``hops * hop_cycles + flits - 1``
after injection); under contention the dynamic simulator may finish earlier
(it interleaves flits where the static schedule serializes whole packets),
never later.  Tests assert both properties.

The model: deterministic XYZ routes, one flit per link per cycle, flits of
a packet cross each link in order, a flit becomes eligible for the next
link ``hop_cycles`` after it started crossing the previous one, and a link
is owned by a single packet from head acquisition until its tail has
crossed (wormhole ownership with unlimited router buffering, i.e. virtual
cut-through).  Arbitration is deterministic by message id.

:class:`repro.noc.events.EventEngine` runs the model: a priority queue of
link grant/release events whose cost scales with flit-hops, not elapsed
cycles.  The original cycle-stepped loop lives in
``tests/oracles/flit_cycle.py``; ``tests/test_noc_events.py`` asserts the
engine is bit-identical to it (finish times, makespan, link statistics)
and ``benchmarks/test_bench_noc_sim.py`` records the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.events import EventEngine, ExpandedPacket
from repro.noc.packet import Message
from repro.noc.routing import dimension_order_route, route_links
from repro.noc.schedule import NoCConfig
from repro.noc.stats import LinkStats
from repro.noc.topology import Mesh3D

@dataclass
class SimulationResult:
    """Timing and link statistics from the flit-level simulation.

    ``message_finish`` is keyed by the caller's ``(msg_id, dest)`` pair, so
    multicast expansion stays addressable: every destination of a multicast
    message reports its own finish cycle under the original ``msg_id``.
    """

    makespan_cycles: int
    message_finish: dict[tuple[int, int], int]
    link_stats: LinkStats
    config: NoCConfig

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles * self.config.cycle_time

    def finish_by_message(self) -> dict[int, int]:
        """Per-``msg_id`` finish cycles (max over a multicast's destinations).

        This is the granularity :class:`repro.noc.schedule.ScheduleResult`
        reports, so it is what cross-model comparisons should use.
        """
        out: dict[int, int] = {}
        for (msg_id, _), cycle in self.message_finish.items():
            out[msg_id] = max(out.get(msg_id, 0), cycle)
        return out


class FlitSimulator:
    """Deterministic flit-level simulator over a mesh (unicast packets).

    Multicast messages are expanded into unicast packets; the static
    scheduler is the reference model for tree multicast.

    Args:
        topo: the mesh.
        config: NoC parameters (paper defaults when omitted).
    """

    def __init__(self, topo: Mesh3D, config: NoCConfig | None = None) -> None:
        self.topo = topo
        self.config = config or NoCConfig()

    def simulate(
        self, messages: list[Message], max_cycles: int = 1_000_000
    ) -> SimulationResult:
        """Run until every packet is delivered.

        Raises :class:`RuntimeError` if delivery does not complete within
        ``max_cycles`` simulated cycles (cycles ``0 .. max_cycles - 1``).
        """
        cfg = self.config
        packets = self._expand(messages)
        stats = LinkStats(self.topo)
        if not packets:
            return SimulationResult(
                makespan_cycles=0, message_finish={}, link_stats=stats, config=cfg
            )
        finish = EventEngine(self.topo, cfg).run(packets, stats, max_cycles)
        return SimulationResult(
            makespan_cycles=max(finish.values()),
            message_finish=finish,
            link_stats=stats,
            config=cfg,
        )

    # ------------------------------------------------------------------
    # Multicast expansion
    # ------------------------------------------------------------------
    def _expand(self, messages: list[Message]) -> list[ExpandedPacket]:
        """Expand multicasts into unicast packets in priority order.

        The list index is the packet's arbitration priority (lower id wins
        link grants), matching the static scheduler's processing order.
        """
        cfg = self.config
        packets: list[ExpandedPacket] = []
        seen: set[tuple[int, int]] = set()
        ordered = sorted(
            messages, key=lambda m: (m.inject_cycle, m.src, m.dests, m.msg_id)
        )
        for msg in ordered:
            for dst in msg.dests:
                key = (msg.msg_id, dst)
                if key in seen:
                    raise ValueError(
                        f"duplicate (msg_id, dest) pair {key}; message ids "
                        f"must be unique per destination for result keying"
                    )
                seen.add(key)
                route = route_links(
                    dimension_order_route(self.topo, msg.src, dst, cfg.routing_order)
                )
                if cfg.model_local_ports:
                    route = (
                        [self.topo.injection_link(msg.src)]
                        + route
                        + [self.topo.ejection_link(dst)]
                    )
                packets.append(
                    ExpandedPacket(
                        key=key,
                        inject_cycle=msg.inject_cycle,
                        route=tuple(route),
                        flits=msg.num_flits(cfg.flit_bits),
                    )
                )
        return packets
