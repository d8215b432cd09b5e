"""Mesh topologies: the 3D mesh backbone of ReGraphX and a planar baseline.

Router ids are linearized ``z * (W*H) + y * W + x``.  The ReGraphX instance
is an ``8 x 8 x 3`` mesh: tier 0 and tier 2 carry E-PEs, tier 1 (the middle,
sandwiched tier) carries V-PEs with one-hop vertical reach to both E tiers
(paper Fig. 2).

Links have two spellings.  A :data:`Link` tuple ``(a, b)`` names a directed
router-to-router link; local ports offset one endpoint by ``num_routers``
(see :meth:`Mesh3D.is_local`).  A dense integer *link id*,
``router * PORTS + port`` (:func:`link_id`), names the same link by the
router it leaves (or, for injection, enters) and a port: ports 0-5 are the
mesh directions +x, -x, +y, -y, +z and -z (:func:`mesh_port`),
:data:`EJECT` is the router -> tile port and :data:`INJECT` the tile ->
router port.  Ids index flat per-link lists in the static scheduler;
:meth:`Mesh3D.link_of` maps an id back to its tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

Link = tuple[int, int]  # directed (src_router, dst_router)

#: Link ids per router: six mesh directions, then the two local ports.
PORTS = 8
EJECT = 6
INJECT = 7


def link_id(router: int, port: int) -> int:
    """Dense id of the link through ``port`` of ``router``."""
    return router * PORTS + port


def mesh_port(axis: int, negative: bool) -> int:
    """Port moving along ``axis`` (0 = x, 1 = y, 2 = z), down if ``negative``."""
    return 2 * axis + negative


@dataclass(frozen=True)
class Mesh3D:
    """A ``width x height x tiers`` 3D mesh."""

    width: int
    height: int
    tiers: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.tiers < 1:
            raise ValueError(
                f"mesh dimensions must be positive, got "
                f"{self.width}x{self.height}x{self.tiers}"
            )

    @property
    def num_routers(self) -> int:
        return self.width * self.height * self.tiers

    @property
    def routers_per_tier(self) -> int:
        return self.width * self.height

    def coords(self, router: int) -> tuple[int, int, int]:
        """Router id -> (x, y, z)."""
        if not 0 <= router < self.num_routers:
            raise IndexError(f"router {router} out of range [0, {self.num_routers})")
        per_tier = self.routers_per_tier
        z, rem = divmod(router, per_tier)
        y, x = divmod(rem, self.width)
        return x, y, z

    def router_id(self, x: int, y: int, z: int) -> int:
        """(x, y, z) -> router id."""
        if not (0 <= x < self.width and 0 <= y < self.height and 0 <= z < self.tiers):
            raise IndexError(f"coordinates ({x}, {y}, {z}) outside the mesh")
        return z * self.routers_per_tier + y * self.width + x

    def neighbors(self, router: int) -> list[int]:
        """Adjacent routers (4 planar + up to 2 vertical)."""
        x, y, z = self.coords(router)
        out = []
        if x > 0:
            out.append(self.router_id(x - 1, y, z))
        if x < self.width - 1:
            out.append(self.router_id(x + 1, y, z))
        if y > 0:
            out.append(self.router_id(x, y - 1, z))
        if y < self.height - 1:
            out.append(self.router_id(x, y + 1, z))
        if z > 0:
            out.append(self.router_id(x, y, z - 1))
        if z < self.tiers - 1:
            out.append(self.router_id(x, y, z + 1))
        return out

    def links(self) -> list[Link]:
        """All directed links."""
        out: list[Link] = []
        for r in range(self.num_routers):
            out.extend((r, n) for n in self.neighbors(r))
        return out

    def is_local(self, link: Link) -> bool:
        """True for injection/ejection (tile <-> router) port links.

        Local ports are encoded with one endpoint offset by
        ``num_routers``: ``(r + N, r)`` is router ``r``'s injection port,
        ``(r, r + N)`` its ejection port.
        """
        return link[0] >= self.num_routers or link[1] >= self.num_routers

    def injection_link(self, router: int) -> Link:
        """The tile -> router injection port of ``router``."""
        if not 0 <= router < self.num_routers:
            raise IndexError(f"router {router} out of range")
        return (router + self.num_routers, router)

    def ejection_link(self, router: int) -> Link:
        """The router -> tile ejection port of ``router``."""
        if not 0 <= router < self.num_routers:
            raise IndexError(f"router {router} out of range")
        return (router, router + self.num_routers)

    def link_of(self, lid: int) -> Link:
        """The :data:`Link` tuple the dense link id ``lid`` names.

        Raises :class:`IndexError` for ids past the last router and for a
        mesh port that leaves the mesh (e.g. +x on the last column).
        """
        if not 0 <= lid < self.num_routers * PORTS:
            raise IndexError(
                f"link id {lid} out of range [0, {self.num_routers * PORTS})"
            )
        router, port = divmod(lid, PORTS)
        if port == EJECT:
            return self.ejection_link(router)
        if port == INJECT:
            return self.injection_link(router)
        axis, negative = divmod(port, 2)
        at = self.coords(router)[axis]
        size = (self.width, self.height, self.tiers)[axis]
        if at == (0 if negative else size - 1):
            raise IndexError(
                f"link id {lid}: port {port} of router {router} leaves the mesh"
            )
        stride = (1, self.width, self.routers_per_tier)[axis]
        return (router, router - stride if negative else router + stride)

    def is_vertical(self, link: Link) -> bool:
        """True for TSV (inter-tier) links; local ports are not vertical."""
        if self.is_local(link):
            return False
        (_, _, z1), (_, _, z2) = self.coords(link[0]), self.coords(link[1])
        return z1 != z2

    def distance(self, a: int, b: int) -> int:
        """Hop distance under minimal routing."""
        xa, ya, za = self.coords(a)
        xb, yb, zb = self.coords(b)
        return abs(xa - xb) + abs(ya - yb) + abs(za - zb)

    def tier_routers(self, tier: int) -> list[int]:
        """All router ids on one tier."""
        if not 0 <= tier < self.tiers:
            raise IndexError(f"tier {tier} out of range [0, {self.tiers})")
        base = tier * self.routers_per_tier
        return list(range(base, base + self.routers_per_tier))


def Mesh2D(width: int, height: int) -> Mesh3D:
    """A planar mesh: a 3D mesh with a single tier (the 2D baseline)."""
    return Mesh3D(width, height, 1)
