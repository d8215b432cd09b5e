"""Unit tests for the CSR graph container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph.graph import CSRGraph, distinct


def edges_strategy(max_nodes: int = 20, max_edges: int = 40):
    return st.integers(4, max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_edges,
            ),
        )
    )


class TestConstruction:
    def test_from_edges_basic(self, tiny_graph):
        assert tiny_graph.num_nodes == 8
        assert tiny_graph.num_edges == 9
        assert tiny_graph.num_directed_edges == 18

    def test_self_loops_removed(self):
        g = CSRGraph.from_edges(4, np.array([[0, 0], [0, 1], [2, 2]]))
        assert g.num_edges == 1

    def test_duplicate_edges_removed(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.num_edges == 1

    def test_empty_graph(self):
        g = CSRGraph.from_edges(3, np.empty((0, 2), dtype=np.int64))
        assert g.num_nodes == 3
        assert g.num_edges == 0
        assert g.average_degree == 0.0

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges(3, np.array([[0, 3]]))

    def test_negative_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges(3, np.array([[-1, 0]]))

    def test_from_keys_row_major(self):
        # Edges 0-2, 1-2, 2-3 as keys lo * 4 + hi.
        g = CSRGraph.from_keys(4, np.array([2, 6, 11]))
        assert g.indptr.tolist() == [0, 1, 2, 5, 6]
        assert g.indices.tolist() == [2, 2, 0, 1, 3, 2]

    def test_from_keys_empty(self):
        g = CSRGraph.from_keys(3, np.empty(0, dtype=np.int64))
        assert g.indptr.tolist() == [0, 0, 0, 0]
        assert g.num_edges == 0

    @pytest.mark.parametrize(
        "keys",
        [[6, 2], [2, 2], [5], [-1], [16], [3 * 4 + 1]],
        ids=["unsorted", "duplicate", "self-loop", "negative", "past-end", "lo>hi"],
    )
    def test_from_keys_rejects_non_canonical_keys(self, keys):
        with pytest.raises(ValueError, match="edge keys"):
            CSRGraph.from_keys(4, np.array(keys))

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 5]), indices=np.array([1]))

    def test_non_monotone_indptr_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(indptr=np.array([0, 2, 1, 3]), indices=np.array([1, 2, 0]))

    def test_neighbor_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="neighbor index"):
            CSRGraph(indptr=np.array([0, 1, 2]), indices=np.array([5, 0]))

    def test_features_length_checked(self):
        with pytest.raises(ValueError, match="features"):
            CSRGraph.from_edges(3, np.array([[0, 1]]), features=np.zeros((2, 4)))

    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            CSRGraph.from_edges(3, np.array([[0, 1]]), labels=np.zeros(2))

    def test_from_scipy_symmetrizes(self):
        adj = sparse.csr_matrix(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        g = CSRGraph.from_scipy(adj)
        assert g.has_edge(1, 0)
        assert g.has_edge(2, 1)
        assert g.num_edges == 2

    def test_from_scipy_drops_diagonal(self):
        adj = sparse.identity(4, format="csr")
        g = CSRGraph.from_scipy(adj)
        assert g.num_edges == 0

    def test_from_scipy_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CSRGraph.from_scipy(sparse.csr_matrix(np.zeros((2, 3))))


class TestAccessors:
    def test_degrees_match_neighbors(self, tiny_graph):
        for v in range(tiny_graph.num_nodes):
            assert tiny_graph.degrees[v] == len(tiny_graph.neighbors(v))

    def test_neighbors_sorted_and_symmetric(self, tiny_graph):
        for v in range(tiny_graph.num_nodes):
            nbrs = tiny_graph.neighbors(v)
            assert list(nbrs) == sorted(nbrs)
            for u in nbrs:
                assert v in tiny_graph.neighbors(u)

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbors(99)

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(0, 6)

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree == pytest.approx(18 / 8)

    def test_feature_dim_requires_features(self, tiny_graph):
        with pytest.raises(ValueError, match="no features"):
            _ = tiny_graph.feature_dim

    def test_num_classes_requires_labels(self, tiny_graph):
        with pytest.raises(ValueError, match="no labels"):
            _ = tiny_graph.num_classes

    def test_to_scipy_roundtrip(self, tiny_graph):
        adj = tiny_graph.to_scipy()
        assert adj.nnz == tiny_graph.num_directed_edges
        assert (adj != adj.T).nnz == 0  # symmetric


class TestDerived:
    def test_subgraph_structure(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 1, 2, 3]))
        assert sub.num_nodes == 4
        assert sub.num_edges == 4  # the 0-1-2-3 cycle

    def test_subgraph_relabels(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([4, 5]))
        assert sub.has_edge(0, 1)

    def test_subgraph_slices_features(self, small_graph):
        nodes = np.array([5, 1, 9])
        sub = small_graph.subgraph(nodes)
        assert np.array_equal(sub.features, small_graph.features[nodes])
        assert np.array_equal(sub.labels, small_graph.labels[nodes])

    def test_subgraph_rejects_duplicates(self, tiny_graph):
        with pytest.raises(ValueError, match="duplicates"):
            tiny_graph.subgraph(np.array([0, 0, 1]))

    def test_normalized_adjacency_rows(self, tiny_graph):
        a_hat = tiny_graph.normalized_adjacency()
        assert a_hat.shape == (8, 8)
        # Symmetric normalization of a symmetric matrix stays symmetric.
        assert abs(a_hat - a_hat.T).max() < 1e-12

    def test_normalized_adjacency_regular_graph_rowsum(self):
        # On a k-regular graph with self-loops, rows sum to exactly 1.
        cycle = CSRGraph.from_edges(6, np.array([[i, (i + 1) % 6] for i in range(6)]))
        a_hat = cycle.normalized_adjacency()
        sums = np.asarray(a_hat.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_normalized_adjacency_no_self_loops(self, tiny_graph):
        a_hat = tiny_graph.normalized_adjacency(add_self_loops=False)
        assert np.allclose(a_hat.diagonal(), 0.0)

    def test_edge_cut_all_same_part(self, tiny_graph):
        assert tiny_graph.edge_cut(np.zeros(8, dtype=int)) == 0

    def test_edge_cut_known_split(self, tiny_graph):
        # Split the two 4-cycles: only the 0-4 bridge crosses.
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert tiny_graph.edge_cut(assignment) == 1

    def test_edge_cut_length_checked(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.edge_cut(np.zeros(3, dtype=int))

    def test_connected_components(self):
        g = CSRGraph.from_edges(5, np.array([[0, 1], [2, 3]]))
        comp = g.connected_components()
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]
        assert len(set(comp)) == 3


class TestProperties:
    @given(edges_strategy())
    @settings(max_examples=40, deadline=None)
    def test_from_edges_invariants(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, np.array(edges).reshape(-1, 2))
        # CSR self-consistency.
        assert g.indptr[-1] == g.indices.size
        assert g.num_directed_edges == 2 * g.num_edges
        # Symmetry.
        adj = g.to_scipy()
        assert (adj != adj.T).nnz == 0
        # No self-loops.
        assert np.all(adj.diagonal() == 0)

    @given(edges_strategy())
    @settings(max_examples=25, deadline=None)
    def test_edge_cut_bounded(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, np.array(edges).reshape(-1, 2))
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, 3, size=n)
        cut = g.edge_cut(assignment)
        assert 0 <= cut <= g.num_edges

    @given(
        st.lists(st.integers(-(2**62), 2**62), max_size=60)
        | st.lists(st.integers(-5, 5), max_size=60)
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_matches_unique(self, values):
        x = np.array(values, dtype=np.int64)
        got = distinct(x)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(x))

    @pytest.mark.parametrize(
        "values",
        [[], [7], [3, 3, 3, 3], [-1, -1], [0, -5, 5, -5, 0], [2**62, -(2**62), 2**62]],
    )
    def test_distinct_edge_cases(self, values):
        x = np.array(values, dtype=np.int64)
        assert np.array_equal(distinct(x), np.unique(x))

    @given(edges_strategy(max_edges=80))
    @settings(max_examples=60, deadline=None)
    def test_from_edges_matches_from_scipy(self, data):
        """Duplicates (in either direction) and self-loops: the CSR built
        from the edge list equals the one built from the COO matrix."""
        n, edges = data
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        coo = sparse.coo_matrix(
            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
        )
        got = CSRGraph.from_edges(n, edges)
        want = CSRGraph.from_scipy(coo)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
