"""Deterministic routing: dimension-ordered unicast routes.

Unicast uses X-Y-Z dimension order (planar first, then the vertical hop —
in ReGraphX's sandwich the V<->E hop is the single final Z step).  Because
every route from a given source follows the same deterministic dimension
order, the union of routes to any destination set forms a tree — exactly
the 3D tree multicast the paper relies on [12].

Every route is one stride walk: at most one straight segment per axis,
leaving the routers ``range(start, stop, ±stride)`` through one mesh port.
:func:`dimension_order_route` reads it as routers, :func:`link_route` as
dense link ids (:mod:`repro.noc.topology`), one id range per segment.
"""

from __future__ import annotations

from repro.noc.topology import PORTS, Link, Mesh3D, link_id, mesh_port

#: A mesh and a validated dimension order, walked per route:
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


def xyz_route(topo: Mesh3D, src: int, dst: int) -> list[int]:
    """Router path from ``src`` to ``dst`` under X, then Y, then Z order."""
    return dimension_order_route(topo, src, dst, "xyz")


def route_links(path: list[int]) -> list[Link]:
    """Consecutive-router pairs of a path."""
    return list(zip(path[:-1], path[1:]))

