"""Flit-level wormhole/cut-through simulator.

Used to validate the static schedule analyzer: for an uncontended packet
both models give *identical* latencies (``hops * hop_cycles + flits - 1``
after injection), and both load every link with the same flits.  Under
contention the models differ: the dynamic simulator interleaves flits where
the static schedule serializes whole packets, and grants links first come
where the schedule reserves them in injection order.  On the GNN traffic
tested the schedule never finished first; tests keep the static/simulated
makespan ratio inside a measured band.

The model: X-Y-Z dimension-order routes between tile ports, built as
dense link ids by the static scheduler's route builder
(:func:`repro.noc.routing.link_paths`); one flit per link per cycle;
flits of a packet cross each link in order; a flit becomes eligible for
the next link ``hop_cycles`` after it started crossing the previous one;
and a link is owned by a single packet from head acquisition until its
tail has crossed (wormhole ownership with unlimited router buffering,
i.e. virtual cut-through).  Arbitration is deterministic by message id.

:class:`repro.noc.events.EventEngine` runs the model: a priority queue of
link grant/release events whose cost scales with flit-hops, not elapsed
cycles.  The original cycle-stepped loop lives in
``tests/oracles/flit_cycle.py``; ``tests/test_noc_events.py`` asserts the
engine is bit-identical to it (finish times, makespan, per-link flits)
and ``benchmarks/test_bench_noc_sim.py`` records the speedup.  Results
keep the same flat per-link loads as the static scheduler's
(:class:`repro.noc.stats.LinkLoads`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.events import EventEngine, ExpandedPacket
from repro.noc.packet import Message
from repro.noc.routing import link_paths
from repro.noc.schedule import NoCConfig
from repro.noc.stats import LinkLoads
from repro.noc.topology import PORTS, Mesh3D


@dataclass
class SimulationResult(LinkLoads):
    """Timing and per-link flit counts from the flit-level simulation.

    ``message_finish`` is keyed by the caller's ``(msg_id, dest)`` pair, so
    multicast expansion stays addressable: every destination of a multicast
    message reports its own finish cycle under the original ``msg_id``.
    """

    makespan_cycles: int
    message_finish: dict[tuple[int, int], int]
    link_loads: tuple[int, ...]  # flits per dense link id (router * PORTS + port)
    topo: Mesh3D
    config: NoCConfig

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
        cfg, topo = self.config, self.topo
        loads = [0] * (topo.num_routers * PORTS)
        finish = EventEngine(cfg).run(self._expand(messages), loads, max_cycles)
        return SimulationResult(
            makespan_cycles=max(finish.values(), default=0),
            message_finish=finish,
            link_loads=tuple(loads),
            topo=topo,
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
        # Results are keyed by (msg_id, dest) and folded by msg_id, so two
        # messages sharing an id would merge their finish cycles.
        seen: set[int] = set()
        for msg in messages:
            if msg.msg_id in seen:
                raise ValueError(f"duplicate message id {msg.msg_id}")
            seen.add(msg.msg_id)
        ordered = sorted(
            messages, key=lambda m: (m.inject_cycle, m.src, m.dests, m.msg_id)
        )
        pairs = [(msg, dst) for msg in ordered for dst in msg.dests]
        ids, offsets = link_paths(
            self.topo, [msg.src for msg, _ in pairs], [dst for _, dst in pairs]
        )
        ids, offsets = ids.tolist(), offsets.tolist()
        return [
            ExpandedPacket(
                key=(msg.msg_id, dst),
                inject_cycle=msg.inject_cycle,
                route=tuple(ids[offsets[k]:offsets[k + 1]]),
                flits=msg.num_flits(cfg.flit_bits),
            )
            for k, (msg, dst) in enumerate(pairs)
        ]
