"""Reference copy of the community-graph generator's oversampling loop.

``repro.graph.generators.powerlaw_community_graph`` as it shipped while
every round drew its partners with ``Generator.choice(..., p=...)`` (one
call per community per round), re-sorted the whole key array each round
and built the CSR twice (once before and once after trimming).  The bodies
are kept verbatim so the differential tests in
``tests/test_graph_generators.py`` can assert that the library returns the
same graph and leaves a caller's ``Generator`` in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.graph.generators import _assign_communities, _powerlaw_weights
from repro.graph.graph import CSRGraph, distinct, edge_keys
from repro.utils.rng import rng_from_seed


def powerlaw_community_graph(
    num_nodes: int,
    num_edges: int,
    num_communities: int = 50,
    mixing: float = 0.1,
    exponent: float = 2.5,
    seed: int | np.random.Generator | None = 0,
    name: str = "synthetic",
) -> CSRGraph:
    """Generate a power-law graph with planted communities."""
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if not 0.0 <= mixing <= 1.0:
        raise ValueError(f"mixing must be in [0, 1], got {mixing}")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"requested {num_edges} edges but the graph holds at most {max_edges}")
    rng = rng_from_seed(seed)
    weights = _powerlaw_weights(num_nodes, exponent, rng)
    community = _assign_communities(num_nodes, num_communities, rng)

    # Pre-compute, per community, the member list and a weight-proportional
    # sampling distribution so intra-community partners can be drawn fast.
    members: list[np.ndarray] = []
    member_probs: list[np.ndarray] = []
    for c in range(num_communities):
        m = np.flatnonzero(community == c)
        members.append(m)
        w = weights[m]
        member_probs.append(w / w.sum() if m.size else w)

    global_probs = weights / weights.sum()
    nodes = np.arange(num_nodes)

    # Sorted distinct edge keys drawn so far (see graph.edge_keys).
    keys = np.empty(0, dtype=np.int64)
    # Oversample in rounds, dropping duplicate edges and self-loops, until
    # the target is met.
    for _round in range(20):
        need = num_edges - keys.size
        if need <= 0:
            break
        batch = int(need * 1.6) + 32
        src = rng.choice(nodes, size=batch, p=global_probs)
        cross = rng.random(batch) < mixing
        dst = np.empty(batch, dtype=np.int64)
        dst[cross] = rng.choice(nodes, size=int(cross.sum()), p=global_probs)
        intra = np.flatnonzero(~cross)
        src_comm = community[src[intra]]
        for c in np.unique(src_comm):
            sel = intra[src_comm == c]
            if members[c].size < 2:
                # Degenerate community: fall back to a global partner.
                dst[sel] = rng.choice(nodes, size=sel.size, p=global_probs)
            else:
                dst[sel] = rng.choice(members[c], size=sel.size, p=member_probs[c])
        new = np.stack([src, dst], axis=1)
        new = new[new[:, 0] != new[:, 1]]
        keys = distinct(np.concatenate([keys, edge_keys(new, num_nodes)]))

    n = np.int64(num_nodes)
    graph = CSRGraph.from_edges(num_nodes, np.stack([keys // n, keys % n], axis=1), name=name)
    graph = _trim_to_edge_count(graph, num_edges, rng)
    graph.community = community  # planted structure, used by feature synthesis
    return graph


def _trim_to_edge_count(
    graph: CSRGraph, num_edges: int, rng: np.random.Generator
) -> CSRGraph:
    """Drop random surplus edges so the graph hits ``num_edges`` exactly."""
    surplus = graph.num_edges - num_edges
    if surplus <= 0:
        return graph
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    dst = graph.indices
    keep_dir = src < dst
    pairs = np.stack([src[keep_dir], dst[keep_dir]], axis=1)
    keep = rng.choice(pairs.shape[0], size=num_edges, replace=False)
    return CSRGraph.from_edges(graph.num_nodes, pairs[keep], name=graph.name)
