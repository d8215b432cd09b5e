"""Unit tests for sparse adjacency block tiling (the Fig. 3 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heterogeneity import zero_storage_study
from repro.graph.generators import powerlaw_community_graph
from repro.graph.graph import CSRGraph
from repro.reram.sparse_mapping import block_tile_adjacency
from repro.reram.tile import e_tile_spec, v_tile_spec


def path_graph(n: int) -> CSRGraph:
    return CSRGraph.from_edges(n, np.array([[i, i + 1] for i in range(n - 1)]))


class TestBlockTiling:
    def test_counts_on_known_graph(self, tiny_graph):
        # tiny_graph: two 4-cycles bridged by 0-4; 18 directed entries.
        mapping = block_tile_adjacency(tiny_graph, 8)
        assert mapping.nnz_entries == 18
        assert mapping.nnz_blocks == 1  # all 8 nodes fit in one 8x8 block
        assert mapping.zeros_stored == 64 - 18

    def test_block_size_one_stores_no_zeros(self, tiny_graph):
        mapping = block_tile_adjacency(tiny_graph, 1)
        assert mapping.nnz_blocks == mapping.nnz_entries
        assert mapping.zeros_stored == 0
        assert mapping.density == 1.0

    def test_path_graph_block_structure(self):
        g = path_graph(16)
        mapping = block_tile_adjacency(g, 8)
        # Diagonal band: 2 diagonal blocks + 2 off-diagonal for the 7-8 edge.
        assert mapping.nnz_blocks == 4
        assert mapping.block_rows == 2

    def test_cells_used(self):
        g = path_graph(16)
        mapping = block_tile_adjacency(g, 8)
        assert mapping.cells_used == 4 * 64

    def test_num_block_cols(self):
        g = path_graph(20)
        assert block_tile_adjacency(g, 8).num_block_cols == 3

    def test_blocks_per_block_row_sums(self):
        g = powerlaw_community_graph(200, 800, seed=0)
        mapping = block_tile_adjacency(g, 8)
        assert mapping.blocks_per_block_row.sum() == mapping.nnz_blocks

    def test_empty_graph(self):
        g = CSRGraph.from_edges(10, np.empty((0, 2), dtype=int))
        mapping = block_tile_adjacency(g, 8)
        assert mapping.nnz_blocks == 0
        assert mapping.zeros_stored == 0

    def test_rejects_bad_block_size(self, tiny_graph):
        with pytest.raises(ValueError):
            block_tile_adjacency(tiny_graph, 0)


class TestTilesNeeded:
    def test_tiles_needed(self):
        g = powerlaw_community_graph(400, 1600, seed=0)
        mapping = block_tile_adjacency(g, 8)
        tiles = mapping.tiles_needed()
        per_tile = e_tile_spec().adjacency_blocks_per_tile
        assert tiles == -(-mapping.nnz_blocks // per_tile)

    def test_tiles_needed_checks_block_size(self):
        g = path_graph(16)
        mapping = block_tile_adjacency(g, 16)
        with pytest.raises(ValueError, match="block size"):
            mapping.tiles_needed(e_tile_spec())


class TestZerosRatio:
    def test_larger_blocks_store_more_zeros(self):
        g = powerlaw_community_graph(600, 3000, seed=1)
        assert zero_storage_study(g, 8, 128).ratio > 1.0

    def test_ratio_undefined_when_no_zeros(self):
        # A single edge in a 1x1 block grid at size 1 stores no zeros.
        g = CSRGraph.from_edges(2, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="no zeros"):
            zero_storage_study(g, 1, 2).ratio

    @given(
        n=st.integers(30, 120),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=15, deadline=None)
    def test_nested_block_zeros_monotone(self, n, seed):
        """For block sizes M and k*M, the larger blocks always store at
        least as many zeros (every nonzero small block lies inside a
        nonzero large block)."""
        g = powerlaw_community_graph(n, min(3 * n, n * (n - 1) // 2), seed=seed)
        z8 = block_tile_adjacency(g, 8).zeros_stored
        z16 = block_tile_adjacency(g, 16).zeros_stored
        z32 = block_tile_adjacency(g, 32).zeros_stored
        assert z8 <= z16 <= z32

    @given(n=st.integers(20, 100), seed=st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_entry_conservation(self, n, seed):
        """Block tiling never loses or invents adjacency entries."""
        g = powerlaw_community_graph(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        for size in (4, 8, 32):
            mapping = block_tile_adjacency(g, size)
            assert mapping.nnz_entries == g.num_directed_edges
            assert mapping.cells_used >= mapping.nnz_entries


class TestHomogeneousBaseline:
    def test_demand(self):
        from repro.baselines.homogeneous import homogeneous_epe_demand

        g = powerlaw_community_graph(500, 2500, seed=0)
        demand = homogeneous_epe_demand(g)
        small = block_tile_adjacency(g, 8)
        assert demand.mapping.block_size == v_tile_spec().crossbar_size
        assert demand.zeros_stored > small.zeros_stored
        assert demand.tiles_needed >= 1
