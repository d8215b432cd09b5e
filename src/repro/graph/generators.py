"""Synthetic graph generators standing in for the paper's datasets.

The paper evaluates on PPI, Reddit, and Amazon2M.  Those datasets are not
available offline, so we synthesize degree- and community-matched graphs:
a Chung-Lu style power-law degree model mixed with planted communities.
Every downstream quantity the architecture consumes — zero-block histograms
of the adjacency matrix, partition sizes, message counts, feature widths —
depends only on these matched statistics, so the synthetic stand-ins are
faithful where the architecture model actually looks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import CSRGraph, distinct, edge_keys
from repro.utils.rng import rng_from_seed


def _powerlaw_weights(num_nodes: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Node weights following a truncated power law (Pareto tail).

    Weights act as expected-degree propensities in the Chung-Lu wiring
    below; the exponent controls how heavy the hub tail is (Reddit-like
    graphs have heavier tails than PPI-like ones).
    """
    if exponent <= 1.0:
        raise ValueError(f"power-law exponent must exceed 1, got {exponent}")
    u = rng.random(num_nodes)
    # Inverse-CDF sampling of a Pareto with shape (exponent - 1), min 1.0,
    # truncated so no node expects more than ~sqrt(N) neighbors.
    weights = (1.0 - u) ** (-1.0 / (exponent - 1.0))
    cap = max(4.0, np.sqrt(num_nodes))
    return np.minimum(weights, cap)


def _assign_communities(
    num_nodes: int, num_communities: int, rng: np.random.Generator
) -> np.ndarray:
    """Community id per node with moderately skewed community sizes."""
    if num_communities < 1:
        raise ValueError("need at least one community")
    sizes = rng.dirichlet(np.full(num_communities, 5.0))
    return rng.choice(num_communities, size=num_nodes, p=sizes)


def powerlaw_community_graph(
    num_nodes: int,
    num_edges: int,
    num_communities: int = 50,
    mixing: float = 0.1,
    exponent: float = 2.5,
    seed: int | np.random.Generator | None = 0,
    name: str = "synthetic",
) -> CSRGraph:
    """Generate a power-law graph with planted communities.

    Args:
        num_nodes: target node count (exact).
        num_edges: target undirected edge count (approached within a few
            percent; duplicates from the stub-sampling process are removed).
        num_communities: number of planted clusters; partitioners should
            roughly rediscover them.
        mixing: fraction of edge endpoints wired across communities
            (0 = perfectly clustered, 1 = no community structure).
        exponent: power-law exponent of the degree propensity tail.
        seed: RNG seed or generator.
        name: graph name.

    Returns:
        A :class:`CSRGraph` with no features/labels attached (see
        :func:`random_features_and_labels`).
    """
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


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    probabilities: tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05),
    seed: int | np.random.Generator | None = 0,
    name: str = "rmat",
) -> CSRGraph:
    """Recursive-MATrix (R-MAT) graph generator (Graph500-style).

    An alternative workload source to the community model: R-MAT produces
    the self-similar, heavy-tailed adjacency structure typical of web and
    social graphs, which stresses the block mapper differently (no planted
    diagonal structure).

    Args:
        scale: log2 of the node count (``n = 2**scale``).
        edge_factor: undirected edges per node to draw.
        probabilities: the (a, b, c, d) quadrant probabilities; must sum
            to 1.  The Graph500 defaults are (0.57, 0.19, 0.19, 0.05).
        seed: RNG seed.
        name: graph name.
    """
    if scale < 1 or scale > 24:
        raise ValueError(f"scale must be in [1, 24], got {scale}")
    if edge_factor < 1:
        raise ValueError("edge_factor must be positive")
    if abs(sum(probabilities) - 1.0) > 1e-9 or any(p < 0 for p in probabilities):
        raise ValueError("quadrant probabilities must be non-negative and sum to 1")
    rng = rng_from_seed(seed)
    n = 1 << scale
    num_edges = n * edge_factor
    a, b, c, _ = probabilities
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        draw = rng.random(num_edges)
        go_right = (draw >= a) & (draw < a + b)
        go_down = (draw >= a + b) & (draw < a + b + c)
        go_diag = draw >= a + b + c
        src += ((go_down | go_diag).astype(np.int64)) << bit
        dst += ((go_right | go_diag).astype(np.int64)) << bit
    return CSRGraph.from_edges(n, np.stack([src, dst], axis=1), name=name)


def random_features_and_labels(
    graph: CSRGraph,
    feature_dim: int,
    num_classes: int,
    noise: float = 1.0,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Attach community-correlated features and labels to ``graph``.

    Each planted community maps to a class; node features are the class
    centroid plus Gaussian noise.  Neighborhood aggregation averages the
    noise away, so a GCN genuinely benefits from the graph structure — the
    property Fig. 5's accuracy curves rely on.

    If the graph has no planted ``community`` attribute, connected-component
    ids (hashed into classes) are used instead.
    """
    if feature_dim < 1 or num_classes < 1:
        raise ValueError("feature_dim and num_classes must be positive")
    rng = rng_from_seed(seed)
    community = getattr(graph, "community", None)
    if community is None:
        community = graph.connected_components()
    labels = (np.asarray(community) % num_classes).astype(np.int64)
    centroids = rng.normal(size=(num_classes, feature_dim))
    features = centroids[labels] + noise * rng.normal(size=(graph.num_nodes, feature_dim))
    out = CSRGraph(
        indptr=graph.indptr,
        indices=graph.indices,
        features=features.astype(np.float64),
        labels=labels,
        name=graph.name,
    )
    out.community = community
    return out
