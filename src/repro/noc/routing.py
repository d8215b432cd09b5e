"""Deterministic routing: X-Y-Z dimension-ordered unicast routes.

Unicast uses X-Y-Z dimension order (planar first, then the vertical hop —
in ReGraphX's sandwich the V<->E hop is the single final Z step).  Because
every route from a given source follows the same deterministic dimension
order, the union of routes to any destination set forms a tree — exactly
the 3D tree multicast the paper relies on [12].  Routes from one source
are prefix-closed (a route's prefix to any router on it is that router's
own route), so every link of such a tree has exactly one parent link.

Every route is one stride walk: at most one straight segment per axis,
leaving the routers ``range(start, stop, ±stride)`` through one mesh port.
:func:`link_paths` builds a whole batch of routes at once as dense link
ids (:mod:`repro.noc.topology`) in numpy: every segment of every route is
one arithmetic run of ids, and the routes come back as one flat array
plus offsets.  Each route starts on its source tile's injection port and
ends on its destination tile's ejection port.  Both NoC models, the
static scheduler and the flit simulator, read their routes from it.
"""

from __future__ import annotations

import numpy as np

from repro.noc.topology import EJECT, INJECT, PORTS, Mesh3D, mesh_port


def route_lengths(topo: Mesh3D, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
    """Link count of each route ``srcs[k] -> dsts[k]``, ports included.

    That is the route's hop count plus its injection and ejection ports:
    the length of route ``k`` in :func:`link_paths`.
    """
    per_tier, width = topo.routers_per_tier, topo.width
    src_z, src_rem = np.divmod(srcs, per_tier)
    dst_z, dst_rem = np.divmod(dsts, per_tier)
    src_y, src_x = np.divmod(src_rem, width)
    dst_y, dst_x = np.divmod(dst_rem, width)
    return (
        np.abs(dst_x - src_x) + np.abs(dst_y - src_y) + np.abs(dst_z - src_z) + 2
    )


def link_paths(topo: Mesh3D, srcs, dsts) -> tuple[np.ndarray, np.ndarray]:
    """Dense link-id paths of the routes ``srcs[k] -> dsts[k]``, built at once.

    Returns ``(ids, offsets)``: route ``k`` is ``ids[offsets[k]:offsets[k + 1]]``:
    its source's injection port, the links a hop-by-hop X-Y-Z walk of the
    route names, then its destination's ejection port.  Each axis segment
    is one run of ids ``router * PORTS + port`` with a constant stride.
    """
    n, width, per_tier = topo.num_routers, topo.width, topo.routers_per_tier
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
    # Per route and axis segment: the first link id, the id stride along
    # the segment and the path position it starts at (0 is the injection).
    first = np.empty((srcs.size, 3), dtype=np.int64)
    step = np.empty((srcs.size, 3), dtype=np.int64)
    begin = np.empty((srcs.size, 3), dtype=np.int64)
    at, length = srcs.copy(), np.ones(srcs.size, dtype=np.int64)
    for axis, stride in enumerate((1, width, per_tier)):
        hops = deltas[axis]
        negative = hops < 0
        first[:, axis] = at * PORTS + mesh_port(axis, negative)
        step[:, axis] = np.where(negative, -stride, stride) * PORTS
        begin[:, axis] = length
        at += hops * stride
        length += np.abs(hops)
    length += 1
    offsets = np.zeros(srcs.size + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    route = np.repeat(np.arange(srcs.size), length)
    pos = np.arange(offsets[-1]) - offsets[route]
    # A position lies in the last segment that begins at or before it
    # (an empty segment begins where the next one does).
    seg = (pos >= begin[route, 1]).astype(np.int64) + (pos >= begin[route, 2])
    ids = first[route, seg] + (pos - begin[route, seg]) * step[route, seg]
    ids[offsets[:-1]] = srcs * PORTS + INJECT
    ids[offsets[1:] - 1] = dsts * PORTS + EJECT
    return ids, offsets
