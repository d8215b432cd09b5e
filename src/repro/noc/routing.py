"""Deterministic routing: dimension-ordered unicast routes.

Unicast uses X-Y-Z dimension order (planar first, then the vertical hop —
in ReGraphX's sandwich the V<->E hop is the single final Z step).  Because
every route from a given source follows the same deterministic dimension
order, the union of routes to any destination set forms a tree — exactly
the 3D tree multicast the paper relies on [12].  Routes from one source
are prefix-closed (a route's prefix to any router on it is that router's
own route), so every link of such a tree has exactly one parent link.

Every route is one stride walk: at most one straight segment per axis,
leaving the routers ``range(start, stop, ±stride)`` through one mesh port.
:func:`dimension_order_route` walks one route as routers.
:func:`link_paths` builds a whole batch of routes at once as dense link
ids (:mod:`repro.noc.topology`) in numpy: every segment of every route is
one arithmetic run of ids, and the routes come back as one flat array
plus offsets.  Both NoC models, the static scheduler and the flit
simulator, read their routes from it.
"""

from __future__ import annotations

import numpy as np

from repro.noc.topology import EJECT, INJECT, PORTS, Mesh3D, mesh_port

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


def link_paths(
    plan: RoutePlan, srcs, dsts, local_ports: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Dense link-id paths of the routes ``srcs[k] -> dsts[k]``, built at once.

    Returns ``(ids, offsets)``: route ``k`` is ``ids[offsets[k]:offsets[k + 1]]``,
    the same ids a hop-by-hop walk of the route names.  Each axis segment
    is one run of ids ``router * PORTS + port`` with a constant stride.
    With ``local_ports`` every path also starts on its source's injection
    port and ends on its destination's ejection port.
    """
    n, width, per_tier, axes = plan
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    if srcs.size and (
        min(srcs.min(), dsts.min()) < 0 or max(srcs.max(), dsts.max()) >= n
    ):
        raise IndexError(f"a route leaves the {n}-router mesh")
    src_z, rem = np.divmod(srcs, per_tier)
    src_y, src_x = np.divmod(rem, width)
    dst_z, rem = np.divmod(dsts, per_tier)
    dst_y, dst_x = np.divmod(rem, width)
    deltas = (dst_x - src_x, dst_y - src_y, dst_z - src_z)
    # Per route and segment (in dimension order): the first link id, the
    # id stride along the segment and the path position it starts at.
    first = np.empty((srcs.size, 3), dtype=np.int64)
    step = np.empty((srcs.size, 3), dtype=np.int64)
    begin = np.empty((srcs.size, 3), dtype=np.int64)
    at, length = srcs.copy(), np.full(srcs.size, int(local_ports), dtype=np.int64)
    for seg, (axis, stride) in enumerate(axes):
        hops = deltas[axis]
        negative = hops < 0
        first[:, seg] = at * PORTS + mesh_port(axis, negative)
        step[:, seg] = np.where(negative, -stride, stride) * PORTS
        begin[:, seg] = length
        at += hops * stride
        length += np.abs(hops)
    length += int(local_ports)
    offsets = np.zeros(srcs.size + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    route = np.repeat(np.arange(srcs.size), length)
    pos = np.arange(offsets[-1]) - offsets[route]
    # A position lies in the last segment that begins at or before it
    # (an empty segment begins where the next one does).
    seg = (pos >= begin[route, 1]).astype(np.int64) + (pos >= begin[route, 2])
    ids = first[route, seg] + (pos - begin[route, seg]) * step[route, seg]
    if local_ports:
        ids[offsets[:-1]] = srcs * PORTS + INJECT
        ids[offsets[1:] - 1] = dsts * PORTS + EJECT
    return ids, offsets

