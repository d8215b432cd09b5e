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
unicast mode replicates one packet per destination.  Every packet also
crosses its source tile's injection port and each destination tile's
ejection port, so a tile's packets serialize on the way in and traffic
converging on one tile (the many-to-one contention GNN traffic creates)
serializes on the way out.

Links are dense ids ``router * PORTS + port`` (:mod:`repro.noc.topology`),
so per-link free cycles and flit counts are flat arrays.  Messages arrive
as a :class:`~repro.noc.packet.MessageTable` (a list is converted once),
are ordered by one ``np.lexsort`` and scheduled in blocks sized by route
entries: a message's entries are the links of its routes, one per
destination (:func:`~repro.noc.routing.route_lengths`), and a block holds
as many messages as fit in :data:`ROUTE_ENTRIES`, or one longer message.
One ``cumsum`` and one ``searchsorted`` cut every block, so a small mesh
takes a few wide blocks and the route arrays stay bounded on a large one.
:func:`~repro.noc.routing.link_paths` builds a block's link-id routes in
numpy, and one stable sort deduplicates each packet tree there into links
that each know their one parent link (dimension-order routes from one
source are prefix-closed).  Only the greedy reservation loop, one visit
per tree link, runs in Python; block edges do not change it, since the
loop carries its per-link free cycles across blocks.  Flit-hops,
utilization and network energy are sums of the flat loads by port class
(:class:`~repro.noc.stats.LinkLoads`, shared with the flit simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noc.packet import Message, MessageTable, csr_spans, padded_rows
from repro.noc.routing import link_paths, route_lengths
from repro.noc.stats import LinkLoads
from repro.noc.topology import PORTS, Mesh3D
from repro.utils.units import GHZ, PICO

#: Route entries (links summed over all of a block's routes) built
#: together.  Bounds the route arrays: all routes at once take tens of MB
#: on the largest meshes.
ROUTE_ENTRIES = 4000


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

    def __post_init__(self) -> None:
        if self.flit_bits < 1:
            raise ValueError("flit width must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.router_cycles < 1 or self.link_cycles < 1:
            raise ValueError("pipeline latencies must be at least one cycle")

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

    def simulate(
        self, messages: MessageTable | list[Message], multicast: bool = True
    ) -> ScheduleResult:
        """Schedule ``messages`` and return timing/energy statistics.

        Each packet reserves its link tree around earlier reservations, a
        link starting ``hop_cycles`` after its parent (wormhole pipelining):
        conflict-free without in-network buffering, as in the paper.
        Messages go in order of (injection cycle, source, destinations as
        a tuple, message id).

        Args:
            messages: the transfer set, as a table or a list (converted
                once); multi-destination messages use a multicast tree when
                ``multicast`` is True, otherwise they are expanded into one
                unicast packet per destination.
            multicast: select tree-multicast vs. unicast routing.
        """
        cfg, topo = self.config, self.topo
        hop = cfg.hop_cycles
        link_free = [0] * (topo.num_routers * PORTS)
        load = np.zeros(topo.num_routers * PORTS, dtype=np.int64)
        table = messages
        if not isinstance(table, MessageTable):
            table = MessageTable.from_messages(messages)
        padded = padded_rows(table.dest_ptr, table.dests)
        order = np.lexsort((table.msg_id, *padded.T[::-1], table.src, table.inject))
        # Cut ``order`` into blocks of at most ROUTE_ENTRIES route entries
        # (one message a block if it alone is longer): ``cum[k]`` entries
        # precede position k, and a block from ``lo`` ends at ``cut[lo]``.
        msg = np.repeat(np.arange(order.size), np.diff(table.dest_ptr))
        entries = np.bincount(
            msg, route_lengths(topo, table.src[msg], table.dests), order.size
        ).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(entries[order])))
        cut = np.searchsorted(cum, cum[:-1] + ROUTE_ENTRIES, side="right") - 1
        cut = np.maximum(cut, np.arange(1, order.size + 1)).tolist()
        lasts: list[int] = []
        lo = 0
        while lo < order.size:
            trees = _Trees(topo, table, order[lo:cut[lo]], multicast, cfg)
            lo = cut[lo]
            slot_flits = np.repeat(trees.flits, np.diff(trees.bounds))
            # A link starts once it frees AND the head has crossed its
            # parent link; parents come before children.  ``starts`` opens
            # with one virtual parent per tree, a hop before its injection,
            # so a root's head arrives at inject.
            starts = (trees.inject - hop).tolist()
            append = starts.append
            for lid, parent, flits in zip(
                trees.lids.tolist(), trees.parents.tolist(), slot_flits.tolist()
            ):
                arrival = starts[parent] + hop
                start = link_free[lid]
                if start < arrival:
                    start = arrival
                link_free[lid] = start + flits
                append(start)
            slot_starts = np.asarray(starts[len(trees.flits):])
            ends = np.maximum.reduceat(slot_starts, trees.bounds[:-1]) + hop
            load += np.bincount(trees.lids, slot_flits, load.size).astype(np.int64)
            # The tail arrives flits - 1 cycles after the deepest head.
            tails = ends + trees.flits - 1
            lasts.extend(np.maximum.reduceat(tails, trees.msg_trees).tolist())

        tag_finish: dict[str, int] = {}
        for code, last in zip(table.tag[order].tolist(), lasts):
            tag = table.tags[code]
            if tag and tag_finish.get(tag, -1) < last:
                tag_finish[tag] = last
        return ScheduleResult(
            makespan_cycles=max(lasts, default=0),
            message_finish=dict(zip(table.msg_id[order].tolist(), lasts)),
            link_loads=tuple(load.tolist()),
            topo=topo,
            config=self.config,
            tag_finish=tag_finish,
        )


class _Trees:
    """The packet trees of table rows ``rows``, in order, as flat arrays.

    One packet per message (its multicast tree) or, without multicast,
    one per destination; message ``m``'s trees start at ``msg_trees[m]``.
    Each tree's links are deduplicated in path order into *slots*: tree
    ``t`` owns slots ``bounds[t]:bounds[t + 1]``, slot ``s`` is link
    ``lids[s]``.  Dimension-order routes from one source are prefix-closed,
    so every tree link has exactly one parent, and it comes earlier.  ``parents`` indexes one
    virtual root per tree followed by the slots: a root link of tree ``t``
    has parent ``t``, any other slot the parent slot plus the tree count.
    """

    def __init__(
        self,
        topo: Mesh3D,
        table: MessageTable,
        rows: np.ndarray,
        multicast: bool,
        cfg: NoCConfig,
    ) -> None:
        fanout = np.diff(table.dest_ptr)[rows]
        msg, at = csr_spans(table.dest_ptr[rows], table.dest_ptr[rows + 1])
        srcs, dsts = table.src[rows][msg], table.dests[at]
        ids, offsets = link_paths(topo, srcs, dsts)
        per_msg = np.ones(rows.size, dtype=np.int64) if multicast else fanout
        self.msg_trees = np.cumsum(per_msg) - per_msg
        self.flits = np.repeat(1 + -(-table.bits[rows] // cfg.flit_bits), per_msg)
        self.inject = np.repeat(table.inject[rows], per_msg)
        route = np.repeat(np.arange(len(dsts)), np.diff(offsets))
        tree = msg[route] if multicast else route
        # Each (tree, link) pair's first occurrence, in path order, is a
        # slot.  A stable sort lists each pair's occurrences in path order.
        keys = tree * (topo.num_routers * PORTS) + ids
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        new = np.ones(order.size, dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        is_first = np.zeros(order.size, dtype=bool)
        is_first[order[new]] = True
        heads = np.flatnonzero(is_first)
        # Every position's slot: the rank of its pair's first occurrence.
        slot = np.empty(order.size, dtype=np.int64)
        slot[order] = (np.cumsum(is_first) - 1)[order[new]][np.cumsum(new) - 1]
        self.lids = ids[heads]
        self.bounds = np.searchsorted(tree[heads], np.arange(self.flits.size + 1))
        self.parents = np.where(
            heads > offsets[route[heads]],
            slot[heads - 1] + self.flits.size,
            tree[heads],
        )
