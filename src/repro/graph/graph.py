"""Compressed-sparse-row graph container.

The whole reproduction flows through this class: the GNN trains on it, the
partitioner cuts it, and the ReRAM mapper tiles its adjacency matrix into
crossbar-sized blocks.  It is an undirected, unweighted simple graph stored
in CSR form (both directions of every edge are stored explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array: ``np.unique`` via sort + mask.

    Plain ``np.unique`` on integers takes a hash-table path in numpy 2.x
    that is about 50x slower than sorting on the edge-key arrays this
    module builds.
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """One int64 key ``min(u, v) * num_nodes + max(u, v)`` per undirected edge."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * np.int64(num_nodes) + hi


@dataclass
class CSRGraph:
    """Undirected graph in CSR form with optional node features/labels.

    Attributes:
        indptr: CSR row pointers, shape ``(num_nodes + 1,)``.
        indices: CSR column indices (neighbor ids), shape ``(2 * num_edges,)``.
        features: optional node feature matrix, shape ``(num_nodes, dim)``.
        labels: optional integer class labels, shape ``(num_nodes,)``.
        name: human-readable identifier used in reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    name: str = "graph"
    _adj: sparse.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr does not describe the indices array")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.num_nodes):
            raise ValueError("neighbor index out of range")
        if self.features is not None and len(self.features) != self.num_nodes:
            raise ValueError("features row count must equal num_nodes")
        if self.labels is not None and len(self.labels) != self.num_nodes:
            raise ValueError("labels length must equal num_nodes")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build from an ``(E, 2)`` array of undirected edges.

        Self-loops and duplicate edges are removed; each surviving edge is
        stored in both directions.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]  # drop self-loops
        keys = distinct(edge_keys(edges, num_nodes))
        return cls.from_keys(num_nodes, keys, features=features, labels=labels, name=name)

    @classmethod
    def from_keys(
        cls,
        num_nodes: int,
        keys: np.ndarray,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build from strictly increasing undirected edge keys (:func:`edge_keys`).

        Each key ``lo * num_nodes + hi`` with ``lo < hi`` is one edge, stored
        in both directions.  Row ``r`` lists its lower neighbours (keys with
        ``hi == r``) and then its upper ones (``lo == r``).  The sorted keys
        already hold the upper halves in row-major order, and scipy's
        counting CSR -> CSC transpose gives the lower halves in order, so no
        sort runs.
        """
        keys = np.asarray(keys, dtype=np.int64)
        lo, hi = np.divmod(keys, np.int64(num_nodes))
        if keys.size and (
            keys[0] < 0 or np.any(keys[1:] <= keys[:-1]) or np.any(lo >= hi)
        ):
            raise ValueError("edge keys must be strictly increasing lo * n + hi with lo < hi")
        m = keys.size
        upper_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(lo, minlength=num_nodes), out=upper_ptr[1:])
        lower = sparse.csr_matrix(
            (np.ones(m, dtype=np.int8), hi, upper_ptr), shape=(num_nodes, num_nodes)
        ).tocsc()
        lower.sort_indices()  # a no-op guard: scipy flags the transpose sorted
        indices = np.empty(2 * m, dtype=np.int64)
        at = np.arange(m)
        # Upper entry i of row lo sits after that row's lower entries.
        indices[at + lower.indptr[1:][lo]] = hi
        indices[at + np.repeat(upper_ptr[:-1], np.diff(lower.indptr))] = lower.indices
        return cls(
            indptr=upper_ptr + lower.indptr,
            indices=indices,
            features=features,
            labels=labels,
            name=name,
        )

    @classmethod
    def from_scipy(
        cls,
        adj: sparse.spmatrix,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build from a (possibly directed) scipy sparse adjacency matrix.

        The matrix is symmetrized and the diagonal is dropped.
        """
        adj = sparse.csr_matrix(adj)
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        adj = adj.maximum(adj.T)
        adj.setdiag(0)
        adj.eliminate_zeros()
        adj.sort_indices()
        return cls(
            indptr=adj.indptr.astype(np.int64),
            indices=adj.indices.astype(np.int64),
            features=features,
            labels=labels,
            name=name,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice internally)."""
        return int(self.indices.size // 2)

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.indices.size)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def average_degree(self) -> float:
        return float(self.indices.size / max(self.num_nodes, 1))

    @property
    def feature_dim(self) -> int:
        if self.features is None:
            raise ValueError(f"graph {self.name!r} has no features")
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError(f"graph {self.name!r} has no labels")
        return int(self.labels.max()) + 1

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor ids of ``node``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).item())

    def to_scipy(self) -> sparse.csr_matrix:
        """Binary scipy CSR adjacency (cached)."""
        if self._adj is None:
            n = self.num_nodes
            data = np.ones(self.indices.size, dtype=np.float64)
            self._adj = sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        return self._adj

    # ------------------------------------------------------------------
    # Derived graphs and matrices
    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray, name: str | None = None) -> "CSRGraph":
        """Induced subgraph on ``nodes`` (relabeled 0..len(nodes)-1).

        Node order in ``nodes`` defines the new labeling.  Features and
        labels are sliced accordingly.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size != np.unique(nodes).size:
            raise ValueError("subgraph node list contains duplicates")
        sub = self.to_scipy()[nodes][:, nodes].tocsr()
        sub.sort_indices()
        return CSRGraph(
            indptr=sub.indptr.astype(np.int64),
            indices=sub.indices.astype(np.int64),
            features=None if self.features is None else self.features[nodes],
            labels=None if self.labels is None else self.labels[nodes],
            name=name or f"{self.name}/sub{nodes.size}",
        )

    def normalized_adjacency(self, add_self_loops: bool = True) -> sparse.csr_matrix:
        """Symmetric GCN propagation matrix ``D^-1/2 (A + I) D^-1/2``.

        This is the operator the E-layer applies; Kipf & Welling's
        renormalization trick adds the identity before normalizing.
        """
        adj = self.to_scipy().astype(np.float64)
        if add_self_loops:
            adj = adj + sparse.identity(self.num_nodes, format="csr")
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv_sqrt = np.zeros_like(deg)
        nz = deg > 0
        inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
        d = sparse.diags(inv_sqrt)
        return (d @ adj @ d).tocsr()

    def edge_cut(self, assignment: np.ndarray) -> int:
        """Number of undirected edges crossing parts under ``assignment``."""
        assignment = np.asarray(assignment)
        if assignment.size != self.num_nodes:
            raise ValueError("assignment length must equal num_nodes")
        src = np.repeat(np.arange(self.num_nodes), self.degrees)
        crossing = assignment[src] != assignment[self.indices]
        return int(crossing.sum() // 2)

    def connected_components(self) -> np.ndarray:
        """Component id per node (scipy BFS under the hood)."""
        n_comp, labels = sparse.csgraph.connected_components(self.to_scipy(), directed=False)
        del n_comp
        return labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, avg_degree={self.average_degree:.2f})"
        )
