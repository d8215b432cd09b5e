"""Reference copies of the partitioner's matching, region-growing and
refinement loops.

``_initial_partition`` and ``_refine`` are the scalar, numpy-indexed loops
``repro.graph.partition`` shipped before its inner loops moved to Python
lists, a bucketed frontier and a screened, ``np.bincount``-scored
refinement pass.
``_heavy_edge_matching`` is the version built on scipy's per-row
``argmax``, before proposals became one ``np.maximum.reduceat``.  They are
kept verbatim so the differential tests in ``tests/test_graph_partition.py``
can assert that the library returns the same result, node for node, on
generated graphs with tied edge weights and unsorted indices.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def _heavy_edge_matching(
    adj: sparse.csr_matrix, rng: np.random.Generator, rounds: int = 3
) -> np.ndarray:
    """Match nodes to a heavy-weight neighbor via mutual proposals.

    Each round, every unmatched node proposes to its heaviest unmatched
    neighbor; mutual proposals become matches.  Returns the coarse node id
    per fine node.
    """
    n = adj.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    work = adj.copy()
    for _ in range(rounds):
        unmatched = match < 0
        if not unmatched.any():
            break
        # Mask out matched columns so proposals only target unmatched nodes.
        col_alive = unmatched[work.indices]
        masked = work.copy()
        masked.data = masked.data * col_alive
        proposals = np.asarray(masked.argmax(axis=1)).ravel()
        row_max = np.asarray(masked.max(axis=1).todense()).ravel()
        proposals[row_max <= 0] = -1
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


def _initial_partition(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy region growing on the coarsest graph."""
    n = adj.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    target = node_weight.sum() / k
    # Seeds: heaviest nodes first, so hubs anchor distinct regions.
    seed_order = list(np.argsort(-node_weight + rng.random(n) * 1e-9))
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for part in range(k):
        # Find an unassigned seed.
        while seed_order and assignment[seed_order[-1]] >= 0:
            seed_order.pop()
        if not seed_order:
            break
        seed = seed_order.pop()
        frontier: dict[int, float] = {int(seed): 0.0}
        weight = 0.0
        while frontier and weight < target:
            # Pull the frontier node with the strongest connection to the part.
            node = max(frontier, key=frontier.__getitem__)
            del frontier[node]
            if assignment[node] >= 0:
                continue
            assignment[node] = part
            weight += node_weight[node]
            for idx in range(indptr[node], indptr[node + 1]):
                nbr = int(indices[idx])
                if assignment[nbr] < 0:
                    frontier[nbr] = frontier.get(nbr, 0.0) + float(data[idx])
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
    with the highest cut-gain while keeping parts under the balance cap."""
    assignment = assignment.copy()
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    part_weight = np.bincount(assignment, weights=node_weight, minlength=k).astype(float)
    cap = max_imbalance * node_weight.sum() / k
    _rebalance(adj, node_weight, assignment, part_weight, cap)
    for _ in range(passes):
        boundary = _boundary_nodes(adj, assignment)
        moved = 0
        for node in boundary:
            here = assignment[node]
            gains: dict[int, float] = {}
            for idx in range(indptr[node], indptr[node + 1]):
                gains[assignment[indices[idx]]] = (
                    gains.get(assignment[indices[idx]], 0.0) + float(data[idx])
                )
            internal = gains.pop(here, 0.0)
            best_part, best_gain = here, 0.0
            for part, weight in gains.items():
                gain = weight - internal
                if gain > best_gain and part_weight[part] + node_weight[node] <= cap:
                    best_part, best_gain = part, gain
            if best_part != here:
                part_weight[here] -= node_weight[node]
                part_weight[best_part] += node_weight[node]
                assignment[node] = best_part
                moved += 1
        if not moved:
            break
    return assignment


def _boundary_nodes(adj: sparse.csr_matrix, assignment: np.ndarray) -> np.ndarray:
    """Nodes with at least one neighbor in a different part."""
    src = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    crossing = assignment[src] != assignment[adj.indices]
    return np.unique(src[crossing])
