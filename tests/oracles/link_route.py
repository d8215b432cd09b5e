"""Reference copies of the route-at-a-time walks, in any dimension order.

``repro.noc.schedule.StaticScheduler.simulate`` used to call
``link_route`` once per destination, turning each segment of the stride
walk ``_walk`` into a ``range`` of link ids, and ``repro.noc.routing``
walked single routes as routers with ``dimension_order_route``.  The
library now builds a whole block of X-Y-Z routes at once in numpy
(``repro.noc.routing.link_paths``) and has no single-route walk left.
``_walk``, ``dimension_order_route`` and ``link_route`` are kept here
verbatim, with the ``route_plan`` that once validated a configurable
dimension order for them, so the differential tests in
``tests/test_noc_routing_orders.py`` compare the batched routes against
a route-at-a-time reference.
"""

from __future__ import annotations

from repro.noc.topology import PORTS, Mesh3D, link_id, mesh_port

#: A mesh and a validated dimension order, ready to route:
#: ``(num_routers, width, routers_per_tier, ((axis, router-id stride), ...))``.
RoutePlan = tuple[int, int, int, tuple[tuple[int, int], ...]]


def route_plan(topo: Mesh3D, order: str = "xyz") -> RoutePlan:
    """Validate a dimension order once and pair each axis with its stride."""
    if sorted(order) != ["x", "y", "z"]:
        raise ValueError(f"order must be a permutation of 'xyz', got {order!r}")
    strides = (1, topo.width, topo.routers_per_tier)
    axes = tuple((axis, strides[axis]) for axis in map("xyz".index, order))
    return topo.num_routers, topo.width, topo.routers_per_tier, axes


def _walk(plan: RoutePlan, src: int, dst: int) -> list[tuple[int, int, int, int]]:
    """Route segments ``(start, stop, step, port)``: each leaves the routers
    ``range(start, stop, step)`` through mesh port ``port``."""
    n, width, per_tier, axes = plan
    if not (0 <= src < n and 0 <= dst < n):
        raise IndexError(f"route {src} -> {dst} leaves the {n}-router mesh")
    src_z, rem = divmod(src, per_tier)
    src_y, src_x = divmod(rem, width)
    dst_z, rem = divmod(dst, per_tier)
    dst_y, dst_x = divmod(rem, width)
    offsets = (dst_x - src_x, dst_y - src_y, dst_z - src_z)
    segments = []
    at = src
    for axis, stride in axes:
        hops = offsets[axis]
        if hops:
            step = stride if hops > 0 else -stride
            segments.append((at, at + hops * stride, step, mesh_port(axis, hops < 0)))
            at += hops * stride
    return segments


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
    path = [src]
    for start, stop, step, _ in _walk(route_plan(topo, order), src, dst):
        path.extend(range(start + step, stop + step, step))
    return path


def link_route(plan: RoutePlan, src: int, dst: int) -> list[int]:
    """Link ids from ``src`` to ``dst`` (see :mod:`repro.noc.topology`)."""
    route: list[int] = []
    for start, stop, step, port in _walk(plan, src, dst):
        route.extend(range(link_id(start, port), link_id(stop, port), step * PORTS))
    return route
