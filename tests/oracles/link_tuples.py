"""Reference copy of the ``(a, b)`` tuple spelling of NoC links.

``repro.noc`` used to name a directed link both by a dense id
(``router * PORTS + port``) and by a tuple of the routers it joins, with
local ports offsetting one endpoint by ``num_routers``.  The library now
speaks only ids.  The tuple alias, the tuple-keyed ``LinkStats`` and the
``Mesh3D`` helpers that built and classified tuples (``link_of``,
``injection_link``, ``ejection_link``, ``is_local``, ``is_vertical``,
here functions of the mesh) are kept verbatim, so the reference oracles
in :mod:`oracles.schedule_tree` and :mod:`oracles.flit_cycle` keep their
tuple-keyed algorithms, and the differential and golden tests compare
the library's per-link loads by mapping ids through :func:`link_of`.
``LinkStats`` keeps only the accounting the oracles read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.topology import EJECT, INJECT, PORTS, Mesh3D

Link = tuple[int, int]  # directed (src_router, dst_router)


def is_local(topo: Mesh3D, link: Link) -> bool:
    """True for injection/ejection (tile <-> router) port links.

    Local ports are encoded with one endpoint offset by
    ``num_routers``: ``(r + N, r)`` is router ``r``'s injection port,
    ``(r, r + N)`` its ejection port.
    """
    return link[0] >= topo.num_routers or link[1] >= topo.num_routers


def injection_link(topo: Mesh3D, router: int) -> Link:
    """The tile -> router injection port of ``router``."""
    if not 0 <= router < topo.num_routers:
        raise IndexError(f"router {router} out of range")
    return (router + topo.num_routers, router)


def ejection_link(topo: Mesh3D, router: int) -> Link:
    """The router -> tile ejection port of ``router``."""
    if not 0 <= router < topo.num_routers:
        raise IndexError(f"router {router} out of range")
    return (router, router + topo.num_routers)


def link_of(topo: Mesh3D, lid: int) -> Link:
    """The :data:`Link` tuple the dense link id ``lid`` names.

    Raises :class:`IndexError` for ids past the last router and for a
    mesh port that leaves the mesh (e.g. +x on the last column).
    """
    if not 0 <= lid < topo.num_routers * PORTS:
        raise IndexError(
            f"link id {lid} out of range [0, {topo.num_routers * PORTS})"
        )
    router, port = divmod(lid, PORTS)
    if port == EJECT:
        return ejection_link(topo, router)
    if port == INJECT:
        return injection_link(topo, router)
    axis, negative = divmod(port, 2)
    at = topo.coords(router)[axis]
    size = (topo.width, topo.height, topo.tiers)[axis]
    if at == (0 if negative else size - 1):
        raise IndexError(
            f"link id {lid}: port {port} of router {router} leaves the mesh"
        )
    stride = (1, topo.width, topo.routers_per_tier)[axis]
    return (router, router - stride if negative else router + stride)


def is_vertical(topo: Mesh3D, link: Link) -> bool:
    """True for TSV (inter-tier) links; local ports are not vertical."""
    if is_local(topo, link):
        return False
    (_, _, z1), (_, _, z2) = topo.coords(link[0]), topo.coords(link[1])
    return z1 != z2


def tuple_loads(topo: Mesh3D, link_loads) -> dict[Link, int]:
    """Flat per-id loads as the tuple-keyed ``LinkStats.flits`` dict."""
    return {link_of(topo, lid): n for lid, n in enumerate(link_loads) if n}


@dataclass
class LinkStats:
    """Per-link flit counts, split planar vs. vertical (TSV)."""

    topo: Mesh3D
    flits: dict[Link, int] = field(default_factory=dict)

    def add(self, link: Link, count: int) -> None:
        if count < 0:
            raise ValueError("flit count must be non-negative")
        self.flits[link] = self.flits.get(link, 0) + count

    @property
    def total_flit_hops(self) -> int:
        return sum(self.flits.values())

    @property
    def local_flit_hops(self) -> int:
        """Flits crossing injection/ejection ports."""
        return sum(c for l, c in self.flits.items() if is_local(self.topo, l))

    @property
    def planar_flit_hops(self) -> int:
        return sum(
            c
            for l, c in self.flits.items()
            if not is_local(self.topo, l) and not is_vertical(self.topo, l)
        )

    @property
    def vertical_flit_hops(self) -> int:
        return sum(c for l, c in self.flits.items() if is_vertical(self.topo, l))
