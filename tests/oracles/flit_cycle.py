"""Reference copy of the cycle-stepped flit-level simulator loop.

``repro.noc.simulator.FlitSimulator`` used to run the flit-level model
either through the event-driven engine (:mod:`repro.noc.events`) or
through this loop, which steps every cycle and scans every pending packet.
The library now always runs the event engine.  The loop and its
bookkeeping are kept here verbatim so the differential tests in
``tests/test_noc_events.py`` (and the speedup benchmark in
``benchmarks/test_bench_noc_sim.py``) can assert that the engine returns
the same finish cycles, makespan and per-link flit counts.

:class:`CycleFlitSimulator` takes the library's input, a
``MessageTable``, shares its multicast expansion (``FlitSimulator._expand``,
which orders packets by the table's priority order) and replaces only the
engine.  The expansion
names links by dense id, so the loop's per-link ownership and its
``LinkStats`` (the tuple-era copy in :mod:`oracles.link_tuples`) are keyed
by id, and ``simulate`` returns the library's ``SimulationResult`` with
those counts laid out flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.events import ExpandedPacket
from repro.noc.packet import MessageTable
from oracles.link_tuples import LinkStats
from repro.noc.simulator import FlitSimulator, SimulationResult
from repro.noc.topology import PORTS


@dataclass
class _PacketState:
    """Cycle-backend bookkeeping for one unicast packet."""

    packet: ExpandedPacket
    acquired: int = 0  # links acquired so far
    crossed: list[int] = field(default_factory=list)  # flits crossed per link
    cross_time: list[list[int]] = field(default_factory=list)
    finish_cycle: int | None = None

    def __post_init__(self) -> None:
        self.crossed = [0] * len(self.packet.route)
        self.cross_time = [[-1] * self.packet.flits for _ in self.packet.route]


class CycleFlitSimulator(FlitSimulator):
    """:class:`FlitSimulator` with the cycle-stepped loop as its engine."""

    def simulate(
        self, table: MessageTable, max_cycles: int = 1_000_000
    ) -> SimulationResult:
        """Run until every packet is delivered (see ``FlitSimulator``)."""
        cfg = self.config
        packets = self._expand(table)
        stats = LinkStats(self.topo)
        finish = self._run_cycle(packets, stats, max_cycles) if packets else {}
        return SimulationResult(
            makespan_cycles=max(finish.values(), default=0),
            message_finish=finish,
            link_loads=tuple(
                stats.flits.get(lid, 0) for lid in range(self.topo.num_routers * PORTS)
            ),
            topo=self.topo,
            config=cfg,
        )

    # ------------------------------------------------------------------
    # Cycle-stepped reference backend
    # ------------------------------------------------------------------
    def _run_cycle(
        self,
        packets: list[ExpandedPacket],
        stats: LinkStats,
        max_cycles: int,
    ) -> dict[tuple[int, int], int]:
        cfg = self.config
        states = [_PacketState(packet=p) for p in packets]
        owner: dict[int, int] = {}
        pending = set(range(len(states)))
        cycle = -1
        while pending:
            cycle += 1
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles with "
                    f"{len(pending)} packets in flight"
                )
            # Phase 1: head-flit link acquisition, deterministic priority.
            for pid in sorted(pending):
                pkt = states[pid]
                while pkt.acquired < len(pkt.packet.route):
                    link = pkt.packet.route[pkt.acquired]
                    if self._head_ready(pkt, pkt.acquired) > cycle:
                        break
                    if link in owner:
                        break
                    owner[link] = pid
                    pkt.acquired += 1
            # Phase 2: flit transfers on owned links.
            for pid in sorted(pending):
                pkt = states[pid]
                for i in range(pkt.acquired):
                    f = pkt.crossed[i]
                    if f >= pkt.packet.flits:
                        continue
                    if self._flit_ready(pkt, i, f) > cycle:
                        continue
                    pkt.cross_time[i][f] = cycle
                    pkt.crossed[i] += 1
                    stats.add(pkt.packet.route[i], 1)
                    if pkt.crossed[i] == pkt.packet.flits:
                        del owner[pkt.packet.route[i]]
            # Phase 3: retire finished packets.
            done = [
                pid
                for pid in pending
                if states[pid].crossed
                and states[pid].crossed[-1] == states[pid].packet.flits
            ]
            for pid in done:
                pkt = states[pid]
                pkt.finish_cycle = pkt.cross_time[-1][-1] + cfg.hop_cycles
                pending.discard(pid)
            # Zero-hop packets cannot exist (Message forbids src == dst).

        return {
            s.packet.key: s.finish_cycle
            for s in states
            if s.finish_cycle is not None
        }

    def _head_ready(self, pkt: _PacketState, hop: int) -> int:
        """Earliest cycle the head flit can start crossing link ``hop``."""
        if hop == 0:
            return pkt.packet.inject_cycle
        t_prev = pkt.cross_time[hop - 1][0]
        if t_prev < 0:
            return 1 << 60  # head has not crossed the previous link yet
        return t_prev + self.config.hop_cycles

    def _flit_ready(self, pkt: _PacketState, hop: int, flit: int) -> int:
        """Earliest cycle flit ``flit`` can start crossing link ``hop``."""
        if hop == 0:
            upstream = pkt.packet.inject_cycle
        else:
            t_prev = pkt.cross_time[hop - 1][flit]
            if t_prev < 0:
                return 1 << 60
            upstream = t_prev + self.config.hop_cycles
        if flit == 0:
            return upstream
        t_before = pkt.cross_time[hop][flit - 1]
        if t_before < 0:
            return 1 << 60
        return max(upstream, t_before + 1)
