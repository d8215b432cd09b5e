"""Unit tests for the multilevel k-way partitioner."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import partition_loops as oracle
from repro.graph import partition as lib
from repro.graph.generators import powerlaw_community_graph
from repro.graph.graph import CSRGraph
from repro.graph.partition import partition_graph


class TestBasics:
    def test_single_part(self, small_graph):
        result = partition_graph(small_graph, 1)
        assert result.num_parts == 1
        assert result.edge_cut == 0
        assert np.all(result.assignment == 0)

    def test_all_nodes_assigned(self, small_partition, small_graph):
        assert small_partition.assignment.shape == (small_graph.num_nodes,)
        assert small_partition.assignment.min() >= 0
        assert small_partition.assignment.max() < 8

    def test_every_part_nonempty(self, small_partition):
        assert np.all(small_partition.part_sizes > 0)

    def test_balance_respected(self, small_partition):
        assert small_partition.imbalance <= 1.1 + 1e-9

    def test_edge_cut_consistent(self, small_graph, small_partition):
        assert small_partition.edge_cut == small_graph.edge_cut(
            small_partition.assignment
        )

    def test_part_nodes(self, small_partition):
        nodes = small_partition.part_nodes(0)
        assert np.all(small_partition.assignment[nodes] == 0)
        assert len(nodes) == small_partition.part_sizes[0]

    def test_part_nodes_out_of_range(self, small_partition):
        with pytest.raises(IndexError):
            small_partition.part_nodes(99)

    def test_deterministic(self, small_graph):
        a = partition_graph(small_graph, 6, seed=4)
        b = partition_graph(small_graph, 6, seed=4)
        assert np.array_equal(a.assignment, b.assignment)

    def test_rejects_bad_k(self, small_graph):
        with pytest.raises(ValueError):
            partition_graph(small_graph, 0)
        with pytest.raises(ValueError):
            partition_graph(small_graph, small_graph.num_nodes + 1)


class TestQuality:
    def test_beats_random_cut(self, small_graph):
        """The multilevel partitioner should cut far fewer edges than a
        random balanced assignment."""
        result = partition_graph(small_graph, 8, seed=0)
        rng = np.random.default_rng(0)
        random_cuts = []
        for _ in range(5):
            assignment = rng.permutation(
                np.arange(small_graph.num_nodes) % 8
            )
            random_cuts.append(small_graph.edge_cut(assignment))
        assert result.edge_cut < 0.8 * min(random_cuts)

    def test_recovers_planted_communities(self):
        """On a strongly clustered graph the cut should be near the number
        of cross-community edges."""
        g = powerlaw_community_graph(
            600, 3600, num_communities=4, mixing=0.05, seed=2
        )
        result = partition_graph(g, 4, seed=0)
        # Planted communities are size-skewed, so the balance constraint
        # forces some big communities to split; still, the cut should stay
        # far below the random-assignment expectation of (1 - 1/k) = 75%.
        assert result.edge_cut <= 0.35 * g.num_edges

    def test_disconnected_graph(self):
        g = CSRGraph.from_edges(
            20, np.array([[i, i + 1] for i in range(9)] + [[i, i + 1] for i in range(10, 19)])
        )
        result = partition_graph(g, 2, seed=0)
        assert np.all(result.part_sizes > 0)
        # Two chains of 10: the natural 2-cut severs nothing.
        assert result.edge_cut <= 2

    def test_path_graph_bisection(self):
        g = CSRGraph.from_edges(40, np.array([[i, i + 1] for i in range(39)]))
        result = partition_graph(g, 2, seed=0)
        # A path bisects with a single cut edge (allow small slack).
        assert result.edge_cut <= 3

    def test_many_parts(self, small_graph):
        result = partition_graph(small_graph, 40, seed=0)
        assert result.num_parts == 40
        assert np.all(result.part_sizes > 0)
        assert result.imbalance <= 1.3  # small parts tolerate more slack


class TestProperties:
    @given(
        n=st.integers(20, 80),
        k=st.integers(2, 6),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_partition_invariants(self, n, k, seed):
        g = powerlaw_community_graph(n, min(3 * n, n * (n - 1) // 2), seed=seed)
        result = partition_graph(g, k, seed=seed)
        assert result.assignment.shape == (n,)
        assert set(np.unique(result.assignment)) <= set(range(k))
        assert result.part_sizes.sum() == n
        assert 0 <= result.edge_cut <= g.num_edges


@st.composite
def weighted_levels(draw):
    """A small symmetric weighted adjacency, node weights, a part count and
    an initial assignment: one level as the partitioner's loops see it.

    Edge weights are small integers, so connections tie often, or the same
    integers times 0.1, so sums taken in different orders can round apart.
    Row indices come canonical or shuffled within each row, as the
    ``proj @ adj @ proj.T`` product in ``_coarsen`` leaves them.
    """
    n = draw(st.integers(2, 30))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            min_size=n,
            max_size=4 * n,
        )
    )
    scale = draw(st.sampled_from([1.0, 0.1]))
    rows = [u for u, v, _ in pairs if u != v]
    cols = [v for u, v, _ in pairs if u != v]
    data = [w * scale for u, v, w in pairs if u != v]
    upper = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    adj = (upper + upper.T).tocsr()
    adj.sum_duplicates()
    adj.sort_indices()
    if draw(st.booleans()):
        order = np.array(draw(st.permutations(range(adj.nnz))), dtype=np.int64)
        src = np.repeat(np.arange(n), np.diff(adj.indptr))
        keep = np.lexsort((order, src))
        adj = sparse.csr_matrix(
            (adj.data[keep], adj.indices[keep], adj.indptr.copy()), shape=(n, n)
        )
    node_weight = np.array(
        draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=np.float64
    )
    k = draw(st.integers(1, min(n, 6)))
    assignment = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64
    )
    return adj, node_weight, k, assignment


def _coarsened_hierarchy(seed):
    """Every matching level ``partition_graph`` builds for a sparse graph
    that coarsens: its adjacency, node weights and the RNG state its
    matching starts from."""
    graph = powerlaw_community_graph(3000, 9000, num_communities=50, seed=seed)
    adj = graph.to_scipy().astype(np.float64)
    node_weight = np.ones(graph.num_nodes)
    rng = np.random.default_rng(seed)
    levels = []
    while adj.shape[0] > 256:
        state = rng.bit_generator.state
        coarse_map = lib._heavy_edge_matching(adj, rng)
        levels.append((adj, node_weight, state))
        if coarse_map.max() + 1 >= adj.shape[0] * 0.95:
            break
        adj, node_weight = lib._coarsen(adj, node_weight, coarse_map)
    return levels


def _coarsened_levels(seed):
    """Every level of :func:`_coarsened_hierarchy` as (adjacency, RNG state)."""
    return [(adj, state) for adj, _, state in _coarsened_hierarchy(seed)]


def _pairs_and_singletons():
    """50 nodes: 10 disjoint edges and 30 isolated nodes, so region growing
    places at most two nodes per part and needs exactly 40 parts."""
    return CSRGraph.from_edges(50, np.array([[2 * i, 2 * i + 1] for i in range(10)]))


class TestLoopsMatchOracle:
    """The array-native matching, bucketed region growing and screened
    refinement reproduce the reference loops node for node, ties included."""

    @given(level=weighted_levels(), tied=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_heavy_edge_matching(self, level, tied, seed):
        adj = level[0].copy()
        if tied:
            adj.data[:] = 1.0
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = lib._heavy_edge_matching(adj, rng_got)
        want = oracle._heavy_edge_matching(adj, rng_want)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_edge_matching_on_coarsened_levels(self, seed):
        levels = _coarsened_levels(seed)
        assert len(levels) > 3
        assert any(not adj.has_sorted_indices for adj, _ in levels)
        for adj, state in levels:
            rng_got, rng_want = np.random.default_rng(), np.random.default_rng()
            rng_got.bit_generator.state = rng_want.bit_generator.state = state
            got = lib._heavy_edge_matching(adj, rng_got)
            want = oracle._heavy_edge_matching(adj, rng_want)
            assert np.array_equal(got, want)

    @given(level=weighted_levels(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_initial_partition(self, level, seed):
        adj, node_weight, k, _ = level
        got = lib._initial_partition(adj, node_weight, k, np.random.default_rng(seed))
        want = oracle._initial_partition(adj, node_weight, k, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype

    @given(level=weighted_levels(), max_imbalance=st.sampled_from([1.0, 1.1, 1.5, 3.0]))
    @example(
        level=(sparse.csr_matrix((3, 3)), np.ones(3), 1, np.zeros(3, dtype=np.int64)),
        max_imbalance=1.1,
    )
    @settings(max_examples=100, deadline=None)
    def test_refine(self, level, max_imbalance):
        adj, node_weight, k, assignment = level
        got = lib._refine(adj, node_weight, assignment, k, max_imbalance)
        want = oracle._refine(adj, node_weight, assignment, k, max_imbalance)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loops_on_coarsened_levels(self, seed):
        """Weighted levels with unsorted rows and many distinct connection
        values, as the multilevel scheme hands them to the loops."""
        levels = _coarsened_hierarchy(seed)
        assert any(not adj.has_sorted_indices for adj, _, _ in levels)
        assert max(np.unique(adj.data).size for adj, _, _ in levels) > 10
        for adj, node_weight, state in levels:
            rng_got, rng_want = np.random.default_rng(), np.random.default_rng()
            rng_got.bit_generator.state = rng_want.bit_generator.state = state
            got = lib._initial_partition(adj, node_weight, 16, rng_got)
            want = oracle._initial_partition(adj, node_weight, 16, rng_want)
            assert np.array_equal(got, want)
            got = lib._refine(adj, node_weight, want, 16, 1.1)
            assert np.array_equal(got, oracle._refine(adj, node_weight, want, 16, 1.1))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_loops_on_unit_weights_many_parts(self, seed):
        """Unit weights cut 40 ways: nearly every pick is a tie."""
        graph = powerlaw_community_graph(400, 2400, num_communities=8, seed=seed)
        adj = graph.to_scipy().astype(np.float64)
        node_weight = np.ones(graph.num_nodes)
        got = lib._initial_partition(adj, node_weight, 40, np.random.default_rng(seed))
        want = oracle._initial_partition(adj, node_weight, 40, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        for max_imbalance in (1.0, 1.1):
            got = lib._refine(adj, node_weight, want, 40, max_imbalance)
            assert np.array_equal(
                got, oracle._refine(adj, node_weight, want, 40, max_imbalance)
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loops_when_seeds_run_out(self, seed):
        """k close to n: at k=45 the 40 components are placed before the
        parts run out, so seeds run out; at k=35 the parts run out first,
        so the straggler loop places the rest."""
        adj = _pairs_and_singletons().to_scipy().astype(np.float64)
        node_weight = np.ones(50)
        for k in (35, 45):
            got = lib._initial_partition(adj, node_weight, k, np.random.default_rng(seed))
            want = oracle._initial_partition(adj, node_weight, k, np.random.default_rng(seed))
            assert np.array_equal(got, want)
            groups = [np.flatnonzero(want == part) for part in range(k)]
            if k == 45:
                assert sum(group.size == 0 for group in groups) == 5
            else:  # a straggler joins a part it has no edge to
                assert any(
                    group.size > 2 or (group.size == 2 and adj[group[0], group[1]] == 0)
                    for group in groups
                )
            got = lib._refine(adj, node_weight, want, k, 1.1)
            assert np.array_equal(got, oracle._refine(adj, node_weight, want, k, 1.1))
