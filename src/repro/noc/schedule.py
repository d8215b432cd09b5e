"""Static conflict-free wormhole schedule analyzer — the paper's NoC model.

Paper Sec. V.A: "The traffic across the NoC is also statically determined
to ensure conflict-free routing."  This module reproduces that methodology:
messages are laid out deterministically (in injection order), each packet
reserves every link on its route for its full flit train, and downstream
hops begin after the wormhole pipeline delay.  No packet ever waits inside
the network — conflicts are resolved at schedule time by delaying the
*start* of a packet until its links free up, which is exactly what a
statically scheduled NoC does.

Multicast packets traverse their XYZ tree once, forking at branch routers;
unicast mode replicates one packet per destination.

Links are dense ids ``router * PORTS + port`` (:mod:`repro.noc.topology`):
per-link free cycles and flit counts are flat lists indexed by the ids
:func:`~repro.noc.routing.link_route` walks, and the returned
:class:`~repro.noc.stats.LinkStats` maps loaded ids back to link tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.packet import Message
from repro.noc.routing import link_route, route_plan
from repro.noc.stats import LinkStats
from repro.noc.topology import EJECT, INJECT, PORTS, Mesh3D, link_id
from repro.utils.units import GHZ, PICO


@dataclass(frozen=True)
class NoCConfig:
    """NoC microarchitecture parameters.

    Defaults: 400 MHz routers (a low-power NoC clocked ~40x the 10 MHz
    ReRAM arrays), 32-bit flits, 2-cycle router pipeline + 1-cycle link
    traversal (a standard low-latency wormhole router), per-flit energies
    from published 3D NoC budgets (router ~1.5 pJ, planar link
    ~1.2 pJ/hop, TSV ~0.05 pJ/hop).
    """

    flit_bits: int = 32
    clock_hz: float = 0.4 * GHZ
    router_cycles: int = 2
    link_cycles: int = 1
    router_energy_per_flit: float = 1.5 * PICO
    planar_link_energy_per_flit: float = 1.2 * PICO
    vertical_link_energy_per_flit: float = 0.05 * PICO
    local_port_energy_per_flit: float = 0.3 * PICO
    # Model tile<->router injection/ejection ports: the source tile's
    # injection link serializes its packets, and a destination's ejection
    # link serializes everything converging on it (the many-to-one
    # contention GNN traffic creates).
    model_local_ports: bool = True
    # "pipelined": links queue independently with cut-through chaining —
    # the efficient time-multiplexed schedule a conflict-free static
    # router would produce.  "atomic": each packet reserves its whole
    # route/tree for its full duration — a conservative wormhole bound.
    schedule_mode: str = "pipelined"
    # Dimension order for deterministic routing: "xyz" (planar first) or
    # "zxy" (vertical first, natural for the V/E sandwich).
    routing_order: str = "xyz"

    def __post_init__(self) -> None:
        if self.flit_bits < 1:
            raise ValueError("flit width must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.router_cycles < 1 or self.link_cycles < 1:
            raise ValueError("pipeline latencies must be at least one cycle")
        if self.schedule_mode not in ("pipelined", "atomic"):
            raise ValueError(
                f"schedule_mode must be 'pipelined' or 'atomic', "
                f"got {self.schedule_mode!r}"
            )
        if sorted(self.routing_order) != ["x", "y", "z"]:
            raise ValueError(
                f"routing_order must be a permutation of 'xyz', "
                f"got {self.routing_order!r}"
            )

    @property
    def cycle_time(self) -> float:
        return 1.0 / self.clock_hz

    @property
    def hop_cycles(self) -> int:
        """Cycles for a flit to progress one hop (router + link)."""
        return self.router_cycles + self.link_cycles


@dataclass
class ScheduleResult:
    """Outcome of scheduling one message set."""

    makespan_cycles: int
    message_finish: dict[int, int]  # msg_id -> cycle its last flit arrives
    link_stats: LinkStats
    config: NoCConfig
    tag_finish: dict[str, int] = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles * self.config.cycle_time

    def tag_finish_seconds(self, tag: str) -> float:
        """Completion time of all messages carrying ``tag``."""
        if tag not in self.tag_finish:
            raise KeyError(f"no messages carried tag {tag!r}")
        return self.tag_finish[tag] * self.config.cycle_time

    @property
    def total_flit_hops(self) -> int:
        return self.link_stats.total_flit_hops

    def energy_joules(self) -> float:
        """Network energy: every flit-hop pays router + link energy."""
        cfg = self.config
        planar = self.link_stats.planar_flit_hops
        vertical = self.link_stats.vertical_flit_hops
        local = self.link_stats.local_flit_hops
        return (
            (planar + vertical + local) * cfg.router_energy_per_flit
            + planar * cfg.planar_link_energy_per_flit
            + vertical * cfg.vertical_link_energy_per_flit
            + local * cfg.local_port_energy_per_flit
        )


class StaticScheduler:
    """Deterministic wormhole schedule over a mesh."""

    def __init__(self, topo: Mesh3D, config: NoCConfig | None = None) -> None:
        self.topo = topo
        self.config = config or NoCConfig()

    def simulate(self, messages: list[Message], multicast: bool = True) -> ScheduleResult:
        """Schedule ``messages`` and return timing/energy statistics.

        Each packet reserves its link tree around earlier reservations, a
        link starting ``hop_cycles`` after its parent (wormhole pipelining):
        conflict-free without in-network buffering, as in the paper.

        Args:
            messages: the transfer set; multi-destination messages use a
                multicast tree when ``multicast`` is True, otherwise they
                are expanded into one unicast packet per destination.
            multicast: select tree-multicast vs. unicast routing.
        """
        cfg, topo = self.config, self.topo
        plan = route_plan(topo, cfg.routing_order)
        atomic, hop = cfg.schedule_mode == "atomic", cfg.hop_cycles
        link_free = [0] * (topo.num_routers * PORTS)
        load = [0] * (topo.num_routers * PORTS)
        finish: dict[int, int] = {}
        tag_finish: dict[str, int] = {}
        makespan = 0

        ordered = sorted(
            messages, key=lambda m: (m.inject_cycle, m.src, m.dests, m.msg_id)
        )
        for msg in ordered:
            flits = msg.num_flits(cfg.flit_bits)
            src, inject = msg.src, msg.inject_cycle
            # One packet per tree: the multicast tree, or a unicast per dest.
            trees = (msg.dests,) if multicast else [(dst,) for dst in msg.dests]
            last = 0
            for dests in trees:
                paths = [link_route(plan, src, dst) for dst in dests]
                if cfg.model_local_ports:  # add the tile<->router port links
                    paths = [
                        [link_id(src, INJECT), *path, link_id(dst, EJECT)]
                        for path, dst in zip(paths, dests)
                    ]
                if atomic:
                    # The head waits until each link is free depth * hop later.
                    tree = {lid: d for path in paths for d, lid in enumerate(path)}
                    start = inject
                    for lid, depth in tree.items():
                        start = max(start, link_free[lid] - depth * hop)
                    for lid, depth in tree.items():
                        link_free[lid] = start + depth * hop + flits
                        load[lid] += flits
                    end = start + max(map(len, paths)) * hop
                else:
                    # Pipelined: a link starts once it frees AND the head
                    # has crossed the previous link; a link placed by an
                    # earlier path of this tree keeps its start cycle.
                    placed: dict[int, int] = {}
                    end = inject
                    for path in paths:
                        arrival = inject
                        for lid in path:
                            start = placed.get(lid)
                            if start is None:
                                start = link_free[lid]
                                if start < arrival:
                                    start = arrival
                                placed[lid] = start
                                link_free[lid] = start + flits
                                load[lid] += flits
                            arrival = start + hop
                        end = max(end, arrival)
                # The tail arrives flits - 1 cycles after the deepest head.
                last = max(last, end + flits - 1)
            finish[msg.msg_id] = last
            makespan = max(makespan, last)
            if msg.tag:
                tag_finish[msg.tag] = max(tag_finish.get(msg.tag, 0), last)

        return ScheduleResult(
            makespan_cycles=makespan,
            message_finish=finish,
            link_stats=LinkStats(
                topo, {topo.link_of(lid): n for lid, n in enumerate(load) if n}
            ),
            config=self.config,
            tag_finish=tag_finish,
        )
