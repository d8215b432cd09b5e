"""Multilevel k-way graph partitioner (METIS-style).

The paper partitions input graphs with METIS [17] before Cluster-GCN
training.  METIS is not available offline, so this module implements the
same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching (mutual-proposal variant,
   fully vectorized) collapses matched pairs until the graph is small.
2. **Initial partition** — greedy region growing on the coarsest graph,
   seeded at high-connectivity nodes, targeting balanced part weights.
3. **Uncoarsening + refinement** — the assignment is projected back level
   by level; at each sufficiently small level a boundary-move refinement
   pass reduces the edge cut while respecting a balance constraint.

The result quality (balanced parts, low edge cut) is what Cluster-GCN
needs; exact METIS parity is not required.

On the dense scaled Table II graphs (ppi@0.1, reddit@0.02, amazon2m@0.004,
ppi@0.05) heavy-edge matching stalls at the first level, so region growing
and refinement run on the full graph and set the cost.  Matching is whole-
array numpy.  Region growing walks each placed node's neighbours once, on
Python lists, and keeps its frontier in buckets keyed by connection value,
each a min-heap of small int first-seen ranks, so it pushes ints rather
than tuples.  Refinement screens each pass with one sparse node-by-part
product and runs its gain scan, one ``np.bincount`` per node, only on the
few boundary nodes that could move (a refine call moves 0.5-1.3k of 5-10k
nodes there).
Sparser graphs do coarsen: ``powerlaw_community_graph(3000, 9000,
num_communities=50)`` cut into 16 parts goes through ten levels.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graph.graph import CSRGraph
from repro.utils.rng import rng_from_seed

# Stop coarsening once the graph is this factor of the target part count,
# or when matching stops making progress.
_COARSEST_FACTOR = 4
_MIN_COARSEST = 256
# Refinement is applied only to levels at most this large (the finest levels
# of very large graphs are projected without refinement for speed).
_MAX_REFINE_NODES = 60_000


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of :func:`partition_graph`.

    Attributes:
        assignment: part id per node, shape ``(num_nodes,)``.
        num_parts: the requested k.
        edge_cut: undirected edges crossing parts.
        part_sizes: node count per part.
        imbalance: max part size divided by the ideal size (1.0 = perfect).
    """

    assignment: np.ndarray
    num_parts: int
    edge_cut: int
    part_sizes: np.ndarray
    imbalance: float

    def part_nodes(self, part: int) -> np.ndarray:
        """Node ids belonging to ``part``."""
        if not 0 <= part < self.num_parts:
            raise IndexError(f"part {part} out of range [0, {self.num_parts})")
        return np.flatnonzero(self.assignment == part)


@dataclass
class _Level:
    """One level of the multilevel hierarchy."""

    adj: sparse.csr_matrix  # weighted adjacency (edge weights = collapsed multiplicity)
    node_weight: np.ndarray  # collapsed node counts
    fine_to_coarse: np.ndarray | None  # projection map from the finer level


def _heavy_edge_matching(
    adj: sparse.csr_matrix, rng: np.random.Generator, rounds: int = 3
) -> np.ndarray:
    """Match nodes to a heavy-weight neighbor via mutual proposals.

    Each round, every unmatched node proposes to its heaviest unmatched
    neighbor (the lowest-indexed one among ties); mutual proposals become
    matches.  Returns the coarse node id per fine node.
    """
    n = adj.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    # Sorted, duplicate-free rows: the first stored maximum of a row is then
    # its lowest-indexed heaviest neighbor.  ``_coarsen`` levels arrive with
    # unsorted indices, so this copy is what fixes the tie-break.
    work = adj.copy()
    work.sum_duplicates()
    indptr, indices = work.indptr, work.indices
    rows = np.repeat(np.arange(n), np.diff(indptr))
    nonempty = np.flatnonzero(np.diff(indptr))
    for _ in range(rounds):
        unmatched = match < 0
        if not unmatched.any():
            break
        # Mask out matched columns so proposals only target unmatched nodes.
        masked = work.data * unmatched[indices]
        row_max = np.zeros(n)
        if nonempty.size:
            row_max[nonempty] = np.maximum.reduceat(masked, indptr[nonempty])
        hit = np.flatnonzero((masked == row_max[rows]) & (masked > 0))
        first = hit[np.diff(rows[hit], prepend=-1) != 0]
        proposals = np.full(n, -1, dtype=np.int64)
        proposals[rows[first]] = indices[first]
        proposals[~unmatched] = -1
        # Mutual proposal: i -> j and j -> i with i < j.
        cand = np.flatnonzero(proposals >= 0)
        mutual = cand[(proposals[proposals[cand]] == cand) & (cand < proposals[cand])]
        match[mutual] = proposals[mutual]
        match[proposals[mutual]] = mutual
    # Assign coarse ids: matched pairs share one id, singletons get their
    # own, numbered in the order a random permutation first visits them.
    # A group's id is the rank of its earliest position in that order.
    pos = np.empty(n, dtype=np.int64)
    pos[rng.permutation(n)] = np.arange(n)
    first = np.where(match >= 0, np.minimum(pos, pos[match]), pos)
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    return np.cumsum(is_first)[first] - 1


def _coarsen(
    adj: sparse.csr_matrix, node_weight: np.ndarray, coarse_map: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Collapse a level through ``coarse_map`` (contraction of matched pairs)."""
    n_coarse = int(coarse_map.max()) + 1
    proj = sparse.csr_matrix(
        (np.ones(coarse_map.size), (coarse_map, np.arange(coarse_map.size))),
        shape=(n_coarse, coarse_map.size),
    )
    coarse_adj = (proj @ adj @ proj.T).tocsr()
    coarse_adj.setdiag(0)
    coarse_adj.eliminate_zeros()
    coarse_weight = np.asarray(proj @ node_weight).ravel()
    return coarse_adj, coarse_weight


def _initial_partition(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy region growing on the coarsest graph.

    Each part grows from an unplaced seed by repeatedly taking the frontier
    node most strongly connected to it, the earliest seen among ties.  The
    frontier is bucketed by connection value: ``buckets[c]`` is a min-heap
    of the first-seen ranks pushed at connection ``c``, and ``keys`` is a
    max-heap of the values that have a bucket.  An entry is stale once its
    node is placed or its connection has moved past ``c``; a bucket and its
    key go only when the bucket is found empty at the top.
    """
    n = adj.shape[0]
    assignment = [-1] * n
    weights = node_weight.tolist()
    target = node_weight.sum() / k
    # Seeds: heaviest nodes first, so hubs anchor distinct regions.
    seed_order = np.argsort(-node_weight + rng.random(n) * 1e-9).tolist()
    indptr, indices, data = adj.indptr.tolist(), adj.indices, adj.data
    # Per node: the part that last saw it, its connection to that part and
    # its first-seen rank there; ``seen[rank]`` maps a rank back to its node.
    stamp, conn, rank = [-1] * n, [0.0] * n, [0] * n
    heappush, heappop = heapq.heappush, heapq.heappop
    for part in range(k):
        # Find an unassigned seed.
        while seed_order and assignment[seed_order[-1]] >= 0:
            seed_order.pop()
        if not seed_order:
            break
        seed = seed_order.pop()
        stamp[seed], conn[seed], rank[seed] = part, 0.0, 0
        seen = [seed]
        buckets: dict[float, list[int]] = {0.0: [0]}
        keys = [-0.0]
        live = 1  # frontier nodes not yet placed
        weight = 0.0
        while live and weight < target:
            top = -keys[0]
            bucket = buckets[top]
            while bucket:
                node = seen[heappop(bucket)]
                if assignment[node] < 0 and conn[node] == top:
                    break
            else:
                del buckets[top]
                heappop(keys)
                continue
            live -= 1
            assignment[node] = part
            weight += weights[node]
            lo, hi = indptr[node], indptr[node + 1]
            for nbr, w in zip(indices[lo:hi].tolist(), data[lo:hi].tolist()):
                if assignment[nbr] < 0:
                    if stamp[nbr] == part:
                        connection = conn[nbr] + w
                    else:
                        stamp[nbr], connection = part, w
                        rank[nbr] = len(seen)
                        seen.append(nbr)
                        live += 1
                    conn[nbr] = connection
                    bucket = buckets.get(connection)
                    if bucket is None:
                        buckets[connection] = [rank[nbr]]
                        heappush(keys, -connection)
                    else:
                        heappush(bucket, rank[nbr])
    assignment = np.array(assignment, dtype=np.int64)
    # Any stragglers (disconnected bits) go to the lightest part.
    part_weight = np.bincount(
        assignment[assignment >= 0], weights=node_weight[assignment >= 0], minlength=k
    )
    for node in np.flatnonzero(assignment < 0):
        part = int(np.argmin(part_weight))
        assignment[node] = part
        part_weight[part] += node_weight[node]
    return assignment


def _rebalance(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    assignment: np.ndarray,
    part_weight: np.ndarray,
    cap: float,
) -> None:
    """Push nodes out of overweight parts (in place) until all fit under ``cap``.

    Moves prefer boundary nodes and the lightest adjacent part, falling back
    to the globally lightest part, so the cut damage is bounded while balance
    is restored unconditionally.
    """
    indptr, indices = adj.indptr, adj.indices
    for part in np.argsort(-part_weight):
        if part_weight[part] <= cap:
            break
        candidates = np.flatnonzero(assignment == part)
        # Boundary nodes first: they have somewhere natural to go.
        for node in candidates:
            if part_weight[part] <= cap:
                break
            nbr_parts = np.unique(assignment[indices[indptr[node]:indptr[node + 1]]])
            nbr_parts = nbr_parts[nbr_parts != part]
            if nbr_parts.size:
                dest = int(nbr_parts[np.argmin(part_weight[nbr_parts])])
            else:
                dest = int(np.argmin(part_weight))
            if dest == part:
                continue
            assignment[node] = dest
            part_weight[part] -= node_weight[node]
            part_weight[dest] += node_weight[node]


def _refine(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    assignment: np.ndarray,
    k: int,
    max_imbalance: float,
    passes: int = 4,
) -> np.ndarray:
    """Boundary-move refinement: greedily move nodes to the adjacent part
    with the highest cut-gain while keeping parts under the balance cap.

    Each pass visits the boundary nodes in id order, but runs the gain scan
    only on those :func:`_move_candidates` cannot rule out, plus any whose
    neighbour moved earlier in the pass; every node it skips would have
    stayed put.
    """
    assignment = assignment.copy()
    part_weight = np.bincount(assignment, weights=node_weight, minlength=k).astype(float)
    cap = max_imbalance * node_weight.sum() / k
    _rebalance(adj, node_weight, assignment, part_weight, cap)
    part_weight = part_weight.tolist()
    weights = node_weight.tolist()
    indptr, indices, data = adj.indptr.tolist(), adj.indices, adj.data
    # Pass-invariant screen inputs.  A connection sums at most d
    # non-negative weights; any two summation orders of it differ by under
    # d * eps * (its value).  The scan compares two such sums, so
    # 2 * d * eps * (weighted degree) of slack keeps the screen conservative
    # however either side rounds.
    n = adj.shape[0]
    degree = np.diff(adj.indptr)
    src = np.repeat(np.arange(n), degree)
    slack = 2 * np.finfo(float).eps * degree * np.bincount(src, adj.data, minlength=n)
    for _ in range(passes):
        boundary, candidates = _move_candidates(adj, assignment, k, src, slack)
        queue = list(candidates)  # ascending, so already a heap
        dirty = np.zeros(n, dtype=bool)
        moved = 0
        while queue:
            node = heapq.heappop(queue)
            if not dirty[node] and all(
                part_weight[part] + weights[node] > cap for part in candidates[node]
            ):
                continue  # every part it could gain from is full
            here = int(assignment[node])
            lo, hi = indptr[node], indptr[node + 1]
            nbrs = indices[lo:hi]
            parts = assignment[nbrs]
            # Each part's connection sums its weights in neighbour order; the
            # parts are tried in order of first appearance, so the first-seen
            # part wins a tie.  Its own part gains 0 and never wins.
            gains = np.bincount(parts, weights=data[lo:hi], minlength=k).tolist()
            internal = gains[here]
            best_part, best_gain = here, 0.0
            for part in dict.fromkeys(parts.tolist()):
                gain = gains[part] - internal
                if gain > best_gain and part_weight[part] + weights[node] <= cap:
                    best_part, best_gain = part, gain
            if best_part != here:
                part_weight[here] -= weights[node]
                part_weight[best_part] += weights[node]
                assignment[node] = best_part
                moved += 1
                # Later boundary neighbours now see a changed connectivity.
                fresh = nbrs[(nbrs > node) & boundary[nbrs] & ~dirty[nbrs]]
                dirty[fresh] = True
                for nbr in fresh.tolist():
                    if nbr not in candidates:
                        heapq.heappush(queue, nbr)
        if not moved:
            break
    return assignment


def _move_candidates(
    adj: sparse.csr_matrix,
    assignment: np.ndarray,
    k: int,
    src: np.ndarray,
    slack: np.ndarray,
) -> tuple[np.ndarray, dict[int, list[int]]]:
    """Screen one refinement pass.

    Returns the boundary mask (nodes with a neighbour in another part) and,
    for each boundary node that has one, the other parts it is at least as
    well connected to as to its own, in ascending node order.  A node moves
    only to a part it gains from, so a node missing from the dict keeps its
    part unless a neighbour moves first.  The node-by-part connectivity is a
    sparse product with at most ``adj.nnz`` entries, never a dense n x k table.
    ``src`` is the row of each stored entry of ``adj`` and ``slack`` the
    per-node rounding allowance that :func:`_refine` computes once.
    """
    n = adj.shape[0]
    boundary = np.zeros(n, dtype=bool)
    boundary[src[assignment[src] != assignment[adj.indices]]] = True
    onehot = sparse.csr_matrix(
        (np.ones(n), assignment, np.arange(n + 1)), shape=(n, k)
    )
    conn = adj @ onehot
    rows = np.repeat(np.arange(n), np.diff(conn.indptr))
    own = conn.indices == assignment[rows]
    internal = np.zeros(n)
    internal[rows[own]] = conn.data[own]
    keep = ~own & (conn.data >= internal[rows] - slack[rows])
    cand_rows, cand_parts = rows[keep], conn.indices[keep].tolist()
    starts = np.flatnonzero(np.diff(cand_rows, prepend=-1)).tolist()
    nodes = cand_rows[starts].tolist()
    ends = starts[1:] + [len(cand_parts)]
    candidates = {
        node: cand_parts[a:b] for node, a, b in zip(nodes, starts, ends)
    }
    return boundary, candidates


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    seed: int | np.random.Generator | None = 0,
    max_imbalance: float = 1.1,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced parts (METIS-style).

    Args:
        graph: the graph to cut.
        num_parts: number of parts (the paper's NumPart).
        seed: RNG seed controlling matching and seed selection.
        max_imbalance: allowed max-part-size / ideal-size ratio during
            refinement (METIS default ballpark: 1.03-1.3).

    Returns:
        A :class:`PartitionResult`; ``assignment[v]`` is the part of node v.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > graph.num_nodes:
        raise ValueError(
            f"cannot cut {graph.num_nodes} nodes into {num_parts} parts"
        )
    rng = rng_from_seed(seed)
    if num_parts == 1:
        assignment = np.zeros(graph.num_nodes, dtype=np.int64)
        return _result(graph, assignment, 1)

    adj = graph.to_scipy().astype(np.float64)
    levels: list[_Level] = [_Level(adj, np.ones(graph.num_nodes), None)]
    coarsest_target = max(_MIN_COARSEST, _COARSEST_FACTOR * num_parts)
    while levels[-1].adj.shape[0] > coarsest_target:
        current = levels[-1]
        coarse_map = _heavy_edge_matching(current.adj, rng)
        n_coarse = int(coarse_map.max()) + 1
        if n_coarse >= current.adj.shape[0] * 0.95:
            break  # matching stalled (e.g. star graphs); stop coarsening
        coarse_adj, coarse_weight = _coarsen(current.adj, current.node_weight, coarse_map)
        levels.append(_Level(coarse_adj, coarse_weight, coarse_map))

    coarsest = levels[-1]
    k = min(num_parts, coarsest.adj.shape[0])
    assignment = _initial_partition(coarsest.adj, coarsest.node_weight, k, rng)
    assignment = _refine(
        coarsest.adj, coarsest.node_weight, assignment, num_parts, max_imbalance
    )
    # Project back through the hierarchy, refining where affordable.
    for fine, level in zip(reversed(levels[:-1]), reversed(levels[1:])):
        assignment = assignment[level.fine_to_coarse]
        if fine.adj.shape[0] <= _MAX_REFINE_NODES:
            assignment = _refine(
                fine.adj, fine.node_weight, assignment, num_parts, max_imbalance
            )
    return _result(graph, assignment, num_parts)


def _result(graph: CSRGraph, assignment: np.ndarray, k: int) -> PartitionResult:
    part_sizes = np.bincount(assignment, minlength=k)
    ideal = graph.num_nodes / k
    return PartitionResult(
        assignment=assignment,
        num_parts=k,
        edge_cut=graph.edge_cut(assignment),
        part_sizes=part_sizes,
        imbalance=float(part_sizes.max() / ideal) if graph.num_nodes else 1.0,
    )
