"""Reference copy of the tuple-keyed static scheduler and its tree builder.

``repro.noc.schedule.StaticScheduler.simulate`` used to rebuild, per
message, a dict-of-tuples multicast tree from router-list routes, compute
every link's depth and sort the tree root-outward before reserving links.
The library now builds batched link-id route trees instead.  The old
scheduler, the result type it returned (its energy summed over the
``LinkStats`` tuple keys, where the library sums flat per-port loads) and
the routing helpers it stood on (dimension-order routes, the multicast
tree, the depth sort) are kept here verbatim, so the differential test in
``tests/test_noc_schedule_oracle.py`` compares the library against a
reference that shares none of the new routing or energy code.  The tuple
link spelling it reads (``Link``, ``LinkStats`` and the local-port
helpers, once ``Mesh3D`` methods) comes from :mod:`oracles.link_tuples`.  ``multicast_tree``
exists only here now; the tree-property tests in
``tests/test_noc_topology_routing.py`` pin it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from oracles.link_tuples import Link, LinkStats, ejection_link, injection_link
from repro.noc.packet import Message
from repro.noc.schedule import NoCConfig
from repro.noc.topology import Mesh3D


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


def dimension_order_route(
    topo: Mesh3D, src: int, dst: int, order: str = "xyz"
) -> list[int]:
    """Router path from ``src`` to ``dst`` under a fixed dimension order.

    ``"xyz"`` resolves planar offsets first and takes the vertical hop last
    (the default); ``"zxy"`` is vertical-first — natural for ReGraphX's
    sandwich, where V<->E transfers start with their single TSV hop.
    Any fixed order is deadlock-free and source-deterministic, so route
    unions still form multicast trees.
    """
    if sorted(order) != ["x", "y", "z"]:
        raise ValueError(f"order must be a permutation of 'xyz', got {order!r}")
    if src == dst:
        return [src]
    coords = dict(zip("xyz", topo.coords(src)))
    target = dict(zip("xyz", topo.coords(dst)))
    path = [src]
    for axis in order:
        while coords[axis] != target[axis]:
            coords[axis] += 1 if target[axis] > coords[axis] else -1
            path.append(topo.router_id(coords["x"], coords["y"], coords["z"]))
    return path


def route_links(path: list[int]) -> list[Link]:
    """Consecutive-router pairs of a path."""
    return list(zip(path[:-1], path[1:]))


def multicast_tree(
    topo: Mesh3D, src: int, dests: tuple[int, ...], order: str = "xyz"
) -> dict[Link, Link | None]:
    """Tree multicast: union of the XYZ routes from ``src`` to each dest.

    Returns a parent map over links: ``tree[link]`` is the upstream link the
    packet arrives on before being forwarded over ``link`` (``None`` for
    links leaving the source router).  Deterministic dimension-order routes
    from one source can never reconverge after diverging, so the union is a
    tree; a packet crosses every tree link exactly once, duplicating only at
    branch routers.
    """
    if not dests:
        raise ValueError("multicast needs at least one destination")
    tree: dict[Link, Link | None] = {}
    for dst in dests:
        if dst == src:
            raise ValueError("multicast destination equals source")
        path = dimension_order_route(topo, src, dst, order)
        prev: Link | None = None
        for link in route_links(path):
            if link not in tree:
                tree[link] = prev
            prev = link
    return tree


def tree_depth_order(tree: dict[Link, Link | None]) -> list[Link]:
    """Tree links sorted root-outward (parents before children)."""
    depth: dict[Link, int] = {}

    def _depth(link: Link) -> int:
        if link not in depth:
            parent = tree[link]
            depth[link] = 0 if parent is None else _depth(parent) + 1
        return depth[link]

    for link in tree:
        _depth(link)
    return sorted(tree, key=lambda l: (depth[l], l))


class StaticScheduler:
    """Deterministic wormhole schedule over a mesh."""

    def __init__(self, topo: Mesh3D, config: NoCConfig | None = None) -> None:
        self.topo = topo
        self.config = config or NoCConfig()

    def simulate(self, messages: list[Message], multicast: bool = True) -> ScheduleResult:
        """Schedule ``messages`` and return timing/energy statistics.

        Args:
            messages: the transfer set; multi-destination messages use a
                multicast tree when ``multicast`` is True, otherwise they
                are expanded into one unicast packet per destination.
            multicast: select tree-multicast vs. unicast routing.
        """
        cfg = self.config
        link_free: dict[Link, int] = {}
        stats = LinkStats(self.topo)
        finish: dict[int, int] = {}
        tag_finish: dict[str, int] = {}
        makespan = 0

        ordered = sorted(
            messages, key=lambda m: (m.inject_cycle, m.src, m.dests, m.msg_id)
        )
        for msg in ordered:
            flits = msg.num_flits(cfg.flit_bits)
            if multicast or not msg.is_multicast:
                last = self._schedule_tree(msg, flits, link_free, stats)
            else:
                last = 0
                for dst in msg.dests:
                    unicast = Message(
                        src=msg.src,
                        dests=(dst,),
                        size_bits=msg.size_bits,
                        inject_cycle=msg.inject_cycle,
                        tag=msg.tag,
                        msg_id=msg.msg_id,
                    )
                    last = max(
                        last, self._schedule_tree(unicast, flits, link_free, stats)
                    )
            finish[msg.msg_id] = last
            makespan = max(makespan, last)
            if msg.tag:
                tag_finish[msg.tag] = max(tag_finish.get(msg.tag, 0), last)

        return ScheduleResult(
            makespan_cycles=makespan,
            message_finish=finish,
            link_stats=stats,
            config=self.config,
            tag_finish=tag_finish,
        )

    def _schedule_tree(
        self,
        msg: Message,
        flits: int,
        link_free: dict[Link, int],
        stats: LinkStats,
    ) -> int:
        """Reserve the (tree of) links for one packet; return finish cycle.

        The head flit leaves the source when every tree link can accept the
        full flit train without colliding with earlier reservations; each
        downstream link starts ``hop_cycles`` after its parent (wormhole
        pipelining).  This keeps the schedule conflict-free without
        in-network buffering, matching the paper's static methodology.
        """
        cfg = self.config
        tree = multicast_tree(self.topo, msg.src, msg.dests, cfg.routing_order)
        if cfg.model_local_ports:
            # Wrap the router tree with the tile<->router port links.
            inj = injection_link(self.topo, msg.src)
            wrapped: dict[Link, Link | None] = {inj: None}
            for link, parent in tree.items():
                wrapped[link] = parent if parent is not None else inj
            for dst in msg.dests:
                last_in = next(l for l in tree if l[1] == dst)
                wrapped[ejection_link(self.topo, dst)] = last_in
            tree = wrapped
        ordered_links = tree_depth_order(tree)
        depth: dict[Link, int] = {}
        for link in ordered_links:
            parent = tree[link]
            depth[link] = 0 if parent is None else depth[parent] + 1
        if cfg.schedule_mode == "atomic":
            # Earliest head-departure so no link conflicts with prior packets.
            start = msg.inject_cycle
            for link in ordered_links:
                earliest = link_free.get(link, 0) - depth[link] * cfg.hop_cycles
                start = max(start, earliest)
            last_finish = start
            for link in ordered_links:
                link_start = start + depth[link] * cfg.hop_cycles
                link_free[link] = link_start + flits
                stats.add(link, flits)
                last_finish = max(last_finish, link_start + cfg.hop_cycles + flits - 1)
            return last_finish
        # Pipelined (cut-through) mode: each link queues independently; a
        # link may start once its queue frees AND the head has arrived from
        # the parent link.  Static conflict-free schedules achieve this
        # time-division of shared links.
        start_at: dict[Link, int] = {}
        last_finish = msg.inject_cycle
        for link in ordered_links:
            parent = tree[link]
            head_arrival = (
                msg.inject_cycle
                if parent is None
                else start_at[parent] + cfg.hop_cycles
            )
            link_start = max(link_free.get(link, 0), head_arrival)
            start_at[link] = link_start
            link_free[link] = link_start + flits
            stats.add(link, flits)
            last_finish = max(last_finish, link_start + cfg.hop_cycles + flits - 1)
        return last_finish
