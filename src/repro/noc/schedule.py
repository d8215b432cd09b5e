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

Links are dense ids ``router * PORTS + port`` (:mod:`repro.noc.topology`),
so per-link free cycles and flit counts are flat arrays.  Messages are
scheduled in blocks of :data:`ROUTE_BLOCK`: :func:`~repro.noc.routing.link_paths`
builds the block's link-id routes in numpy, and each packet tree is
deduplicated there into links that each know their one parent link
(dimension-order routes from one source are prefix-closed).  Only the
greedy reservation loop, one visit per tree link, runs in Python; both
schedule modes read the same trees.  Flit-hops, utilization and network
energy are sums of the flat loads by port class
(:class:`~repro.noc.stats.LinkLoads`, shared with the flit simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noc.packet import Message
from repro.noc.routing import RoutePlan, link_paths, route_plan
from repro.noc.stats import LinkLoads
from repro.noc.topology import PORTS, Mesh3D
from repro.utils.units import GHZ, PICO

#: Messages whose routes are built together.  Bounds the route arrays: all
#: routes at once take tens of MB on the largest meshes.
ROUTE_BLOCK = 128


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
class ScheduleResult(LinkLoads):
    """Outcome of scheduling one message set.

    ``link_loads[router * PORTS + port]`` is the flits that crossed that
    link; flit-hops, utilization and energy come from :class:`LinkLoads`.
    """

    makespan_cycles: int
    message_finish: dict[int, int]  # msg_id -> cycle its last flit arrives
    link_loads: tuple[int, ...]  # flits per dense link id (router * PORTS + port)
    topo: Mesh3D
    config: NoCConfig
    tag_finish: dict[str, int] = field(default_factory=dict)

    def tag_finish_seconds(self, tag: str) -> float:
        """Completion time of all messages carrying ``tag``."""
        if tag not in self.tag_finish:
            raise KeyError(f"no messages carried tag {tag!r}")
        return self.tag_finish[tag] * self.config.cycle_time


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
        load = np.zeros(topo.num_routers * PORTS, dtype=np.int64)
        ordered = sorted(
            messages, key=lambda m: (m.inject_cycle, m.src, m.dests, m.msg_id)
        )
        lasts: list[int] = []
        for lo in range(0, len(ordered), ROUTE_BLOCK):
            trees = _Trees(plan, ordered[lo:lo + ROUTE_BLOCK], multicast, cfg)
            lids = trees.lids.tolist()
            slot_flits = np.repeat(trees.flits, np.diff(trees.bounds))
            if atomic:
                # The head waits until each link is free depth * hop later.
                delays = (trees.depths * hop).tolist()
                bounds = trees.bounds.tolist()
                heads = []
                for t, (inject, flits) in enumerate(
                    zip(trees.inject.tolist(), trees.flits.tolist())
                ):
                    tree = range(bounds[t], bounds[t + 1])
                    start = max(inject, *(link_free[lids[s]] - delays[s] for s in tree))
                    for s in tree:
                        link_free[lids[s]] = start + delays[s] + flits
                    heads.append(start)
                deepest = np.maximum.reduceat(trees.depths, trees.bounds[:-1])
                ends = np.asarray(heads) + (deepest + 1) * hop
            else:
                # Pipelined: a link starts once it frees AND the head has
                # crossed its parent link; parents come before children.
                # ``starts`` opens with one virtual parent per tree, a hop
                # before its injection, so a root's head arrives at inject.
                starts = (trees.inject - hop).tolist()
                append = starts.append
                for lid, parent, flits in zip(
                    lids, trees.parents.tolist(), slot_flits.tolist()
                ):
                    arrival = starts[parent] + hop
                    start = link_free[lid]
                    if start < arrival:
                        start = arrival
                    link_free[lid] = start + flits
                    append(start)
                slot_starts = np.asarray(starts[len(trees.flits):])
                ends = np.maximum.reduceat(slot_starts, trees.bounds[:-1]) + hop
            np.add.at(load, trees.lids, slot_flits)
            # The tail arrives flits - 1 cycles after the deepest head.
            tails = ends + trees.flits - 1
            lasts.extend(np.maximum.reduceat(tails, trees.msg_trees).tolist())

        finish: dict[int, int] = {}
        tag_finish: dict[str, int] = {}
        for msg, last in zip(ordered, lasts):
            finish[msg.msg_id] = last
            if msg.tag:
                tag_finish[msg.tag] = max(tag_finish.get(msg.tag, 0), last)
        return ScheduleResult(
            makespan_cycles=max(lasts, default=0),
            message_finish=finish,
            link_loads=tuple(load.tolist()),
            topo=topo,
            config=self.config,
            tag_finish=tag_finish,
        )


class _Trees:
    """The packet trees of a block of ordered messages, as flat arrays.

    One packet per message (its multicast tree) or, without multicast,
    one per destination; message ``m``'s trees start at ``msg_trees[m]``.
    Each tree's links are deduplicated in path order into *slots*: tree
    ``t`` owns slots ``bounds[t]:bounds[t + 1]``, slot ``s`` is link
    ``lids[s]`` at position ``depths[s]`` along its paths.  Dimension-order
    routes from one source are prefix-closed, so every tree link has
    exactly one parent, and it comes earlier.  ``parents`` indexes one
    virtual root per tree followed by the slots: a root link of tree ``t``
    has parent ``t``, any other slot the parent slot plus the tree count.
    """

    def __init__(
        self, plan: RoutePlan, block: list[Message], multicast: bool, cfg: NoCConfig
    ) -> None:
        fanout = [len(m.dests) for m in block]
        dsts = [d for m in block for d in m.dests]
        srcs = np.repeat([m.src for m in block], fanout)
        ids, offsets = link_paths(plan, srcs, dsts, cfg.model_local_ports)
        per_msg = np.ones(len(block), dtype=np.int64) if multicast else fanout
        self.msg_trees = np.cumsum(per_msg) - per_msg
        self.flits = np.repeat([m.num_flits(cfg.flit_bits) for m in block], per_msg)
        self.inject = np.repeat([m.inject_cycle for m in block], per_msg)
        route = np.repeat(np.arange(len(dsts)), np.diff(offsets))
        tree = np.repeat(np.arange(len(block)), fanout)[route] if multicast else route
        # Each (tree, link) pair's first occurrence, in path order, is a slot.
        keys = tree * (plan[0] * PORTS) + ids
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        slot = np.empty(order.size, dtype=np.int64)
        slot[order] = np.arange(order.size)
        heads = first[order]
        self.lids = ids[heads]
        self.depths = heads - offsets[route[heads]]
        self.bounds = np.searchsorted(tree[heads], np.arange(self.flits.size + 1))
        self.parents = np.where(
            self.depths > 0, slot[inverse[heads - 1]] + self.flits.size, tree[heads]
        )
