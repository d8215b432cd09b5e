"""Synthetic graph generators standing in for the paper's datasets.

The paper evaluates on PPI, Reddit, and Amazon2M.  Those datasets are not
available offline, so we synthesize degree- and community-matched graphs:
a Chung-Lu style power-law degree model mixed with planted communities.
Every downstream quantity the architecture consumes — zero-block histograms
of the adjacency matrix, partition sizes, message counts, feature widths —
depends only on these matched statistics, so the synthetic stand-ins are
faithful where the architecture model actually looks.

The community generator draws each endpoint by inverse-CDF lookup through
``_GuideTable`` instead of ``Generator.choice(..., p=...)``, and the
graphs are bit-identical to drawing with ``choice``.  ``choice`` builds
``cdf = p.cumsum(); cdf /= cdf[-1]``, draws ``Generator.random(size)`` and
returns ``cdf.searchsorted(u, side="right")``.  The table builds the same
CDF from the same ``p``, consumes the same doubles (one 64-bit word each,
so one ``random(a + b)`` equals ``random(a)`` then ``random(b)``) and returns
the same index.  A round's intra-community partners take one ``random``
call in the order of a stable sort on the source community, which is the
order a loop of one ``choice`` call per community consumes them in.  The
generator therefore also ends in the same state, which matters when the
caller passes its own ``Generator`` and keeps drawing.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import CSRGraph, distinct
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


class _GuideTable:
    """Inverse-CDF sampling from several discrete distributions at once.

    Segment ``s`` holds ``values[s]`` drawn with probabilities ``probs[s]``.
    :meth:`draw` maps uniforms ``u`` in [0, 1) to the value at
    ``cdf.searchsorted(u, side="right")`` of the segment's CDF, built as
    ``Generator.choice`` builds it (``cdf = p.cumsum(); cdf /= cdf[-1]``),
    so ``draw(s, rng.random(size))`` returns exactly
    ``rng.choice(values[s], size, p=probs[s])`` and leaves ``rng`` in the
    same state.

    A guide table of ``bins`` (a power of two, at least 4x the segment's
    length) entries replaces the binary search: ``guide[j]`` is the answer
    for ``u = j / bins``.  Scaling by a power of two is exact, so a draw in
    bin ``j = floor(u * bins)`` has ``u >= j / bins`` and its answer is at
    least ``guide[j]``; an upward scan while ``cdf[idx] <= u`` then finds
    it.  The CDFs are stored back to back, each followed by an ``inf``
    sentinel that stops the scan inside its segment.
    """

    def __init__(self, probs: list[np.ndarray], values: list[np.ndarray]) -> None:
        cdfs, guides, values_out, bins = [], [], [], []
        offset = 0
        for p, v in zip(probs, values):
            cdf = p.cumsum()
            cdf /= cdf[-1]
            b = 1 << (4 * cdf.size - 1).bit_length()
            guides.append(cdf.searchsorted(np.arange(b) / b, side="right") + offset)
            cdfs += [cdf, [np.inf]]
            values_out += [v, [-1]]
            bins.append(b)
            offset += cdf.size + 1
        self.cdf = np.concatenate(cdfs)
        self.values = np.concatenate(values_out)
        self.guide = np.concatenate(guides)
        self.guide_start = np.cumsum([0] + bins[:-1])
        self.bins = np.array(bins, dtype=np.float64)

    def draw(self, segment: int | np.ndarray, u: np.ndarray) -> np.ndarray:
        """The value each uniform in ``u`` selects in its ``segment``."""
        cdf = self.cdf
        idx = self.guide[self.guide_start[segment] + (u * self.bins[segment]).astype(np.intp)]
        active = np.flatnonzero(cdf[idx] <= u)
        while active.size:
            idx[active] += 1
            active = active[cdf[idx[active]] <= u[active]]
        return self.values[idx]


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
        num_edges: target undirected edge count (exact unless 20
            oversampling rounds cannot draw that many distinct edges, as in
            near-complete graphs; duplicates from the stub-sampling process
            are removed, surplus edges trimmed).
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

    # Segment 0 draws any node by weight; each community of two or more
    # members gets its own segment over its members.  A smaller community
    # keeps drawing its intra partners from segment 0.
    probs, values = [weights / weights.sum()], [np.arange(num_nodes)]
    segment_of = np.zeros(num_communities, dtype=np.intp)
    for c in range(num_communities):
        m = np.flatnonzero(community == c)
        if m.size >= 2:
            w = weights[m]
            segment_of[c] = len(probs)
            probs.append(w / w.sum())
            values.append(m)
    table = _GuideTable(probs, values)
    node_segment = segment_of[community]
    # Narrow ints make numpy's stable sort a radix sort.
    sort_key = community.astype(np.min_scalar_type(num_communities - 1))

    # Sorted distinct edge keys drawn so far.
    keys = np.empty(0, dtype=np.int64)
    n = np.int64(num_nodes)
    # Oversample in rounds, dropping duplicate edges and self-loops, until
    # the target is met.  Each round consumes the generator's doubles in
    # the order of the per-community ``Generator.choice`` loop kept in
    # tests/oracles/generator_loop.py: sources, the cross mask, cross
    # partners, then intra partners community by community in ascending id.
    for _round in range(20):
        need = num_edges - keys.size
        if need <= 0:
            break
        batch = int(need * 1.6) + 32
        src = table.draw(0, rng.random(batch))
        cross = rng.random(batch) < mixing
        dst = np.empty(batch, dtype=np.int64)
        dst[cross] = table.draw(0, rng.random(int(cross.sum())))
        intra = np.flatnonzero(~cross)
        intra = intra[np.argsort(sort_key[src[intra]], kind="stable")]
        dst[intra] = table.draw(node_segment[src[intra]], rng.random(intra.size))
        # graph.edge_keys without stacking the pairs; self-loops dropped.
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        fresh = distinct((lo * n + hi)[lo != hi])
        # Merge the round's new keys into the sorted array.
        at = keys.searchsorted(fresh)
        if keys.size:
            new = keys[np.minimum(at, keys.size - 1)] != fresh
            fresh, at = fresh[new], at[new]
        keys = np.insert(keys, at, fresh)

    keys = _trim_to_edge_count(keys, num_edges, rng)
    graph = CSRGraph.from_keys(num_nodes, keys, name=name)
    graph.community = community  # planted structure, used by feature synthesis
    return graph


def _trim_to_edge_count(
    keys: np.ndarray, num_edges: int, rng: np.random.Generator
) -> np.ndarray:
    """Drop random surplus keys so ``num_edges`` remain (still sorted)."""
    if keys.size <= num_edges:
        return keys
    keep = np.zeros(keys.size, dtype=bool)
    keep[rng.choice(keys.size, size=num_edges, replace=False)] = True
    return keys[keep]


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
