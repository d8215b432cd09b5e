"""Synthetic traffic generators for NoC-only evaluation and tests.

Besides standard uniform-random and hotspot patterns, this module provides
the GNN-shaped *many-to-one-to-many* pattern of paper Sec. III: many source
routers (V-PEs) send to a shared set of sink routers (E-PEs), which reply
to many destinations.  Reached from the NoC load sweep
(:mod:`repro.noc.analysis`), the NoC ablation and flit-simulator
benchmarks and ``examples/noc_study.py``, not from the paper pipeline,
whose traffic comes from :mod:`repro.core.traffic`.  Every generator
returns a :class:`~repro.noc.packet.MessageTable`, the form both NoC
models take, built from column lists with message ids ``0 .. n-1`` in
draw order.
"""

from __future__ import annotations

import numpy as np

from repro.noc.packet import MessageTable
from repro.noc.topology import Mesh3D
from repro.utils.rng import rng_from_seed


def _table(
    srcs: list[int], groups: list, size_bits: int, injects: list[int],
    tag: int | np.ndarray = 0, tags: tuple[str, ...] = ("",),
) -> MessageTable:
    """Messages ``srcs[k] -> groups[k]``, tag codes ``tag``, ids in row order."""
    n = len(srcs)
    return MessageTable(
        src=srcs,
        dest_ptr=np.cumsum([0, *map(len, groups)]),
        dests=[d for group in groups for d in group],
        bits=np.full(n, size_bits),
        inject=injects,
        tag=np.broadcast_to(tag, n),
        tags=tags,
        msg_id=np.arange(n),
    )


def uniform_random_traffic(
    topo: Mesh3D,
    num_messages: int,
    size_bits: int = 256,
    seed: int | np.random.Generator | None = 0,
    inject_window: int = 0,
) -> MessageTable:
    """Independent random (src, dst) pairs, optionally spread over a window."""
    if num_messages < 0:
        raise ValueError("num_messages must be non-negative")
    rng = rng_from_seed(seed)
    srcs, dsts, injects = [], [], []
    for _ in range(num_messages):
        src = int(rng.integers(topo.num_routers))
        dst = int(rng.integers(topo.num_routers))
        while dst == src:
            dst = int(rng.integers(topo.num_routers))
        srcs.append(src)
        dsts.append([dst])
        injects.append(int(rng.integers(inject_window + 1)))
    return _table(srcs, dsts, size_bits, injects)


def hotspot_traffic(
    topo: Mesh3D,
    num_messages: int,
    hotspot: int,
    hotspot_fraction: float = 0.5,
    size_bits: int = 256,
    seed: int | np.random.Generator | None = 0,
    inject_window: int = 0,
) -> MessageTable:
    """Uniform traffic where a fraction of messages target one hot router.

    The non-hotspot draw excludes the hotspot router, so exactly the
    requested fraction of messages (in expectation) converges on it; like
    :func:`uniform_random_traffic`, injections spread uniformly over
    ``inject_window`` cycles.
    """
    if not 0 <= hotspot_fraction <= 1:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    if not 0 <= hotspot < topo.num_routers:
        raise IndexError(f"hotspot router {hotspot} out of range")
    if topo.num_routers < 3 and hotspot_fraction < 1:
        # Non-hotspot draws exclude both src and the hotspot, so a third
        # router must exist for the redraw loop to terminate.
        raise ValueError(
            "hotspot traffic with a non-hotspot fraction needs at least "
            f"3 routers, got {topo.num_routers}"
        )
    rng = rng_from_seed(seed)
    srcs, dsts, injects = [], [], []
    for _ in range(num_messages):
        src = int(rng.integers(topo.num_routers))
        while src == hotspot:
            src = int(rng.integers(topo.num_routers))
        if rng.random() < hotspot_fraction:
            dst = hotspot
        else:
            dst = int(rng.integers(topo.num_routers))
            while dst == src or dst == hotspot:
                dst = int(rng.integers(topo.num_routers))
        srcs.append(src)
        dsts.append([dst])
        injects.append(int(rng.integers(inject_window + 1)))
    return _table(srcs, dsts, size_bits, injects)


def many_to_one_to_many_traffic(
    topo: Mesh3D,
    sources: list[int],
    sinks: list[int],
    size_bits: int = 256,
    replies: bool = True,
    seed: int | np.random.Generator | None = 0,
    inject_window: int = 0,
) -> MessageTable:
    """GNN-shaped traffic: every source multicasts to the shared sink set,
    and (optionally) each sink multicasts a reply back to all sources.

    The src/dest pattern is deterministic; ``inject_window > 0`` draws each
    message's injection cycle uniformly from the window (seeded), matching
    the other generators' sparse-in-time knob.
    """
    if not sources or not sinks:
        raise ValueError("need at least one source and one sink")
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks must be disjoint")
    rng = rng_from_seed(seed)
    # Gathers (one per source, to every sink) come first, then replies.
    srcs = [*sources, *sinks] if replies else list(sources)
    groups = [sinks] * len(sources) + [sources] * (len(srcs) - len(sources))
    injects = [int(rng.integers(inject_window + 1)) if inject_window else 0
               for _ in srcs]
    tag = np.arange(len(srcs)) >= len(sources)
    return _table(srcs, groups, size_bits, injects, tag, ("gather", "scatter"))
