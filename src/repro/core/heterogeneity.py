"""Heterogeneity analysis: why ReGraphX mixes 8x8 and 128x128 crossbars.

Two studies from the paper:

* **Zero storage (Fig. 3)** — tile each dataset's adjacency with small and
  large blocks and count the zeros that end up inside mapped blocks.
* **E-PE demand vs. batch size (Fig. 6, right axis)** — larger merged
  sub-graphs occupy more adjacency blocks, so E-PE demand grows with beta.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.clustering import ClusterBatcher
from repro.graph.graph import CSRGraph
from repro.graph.partition import PartitionResult
from repro.reram.sparse_mapping import BlockMapping, block_tile_adjacency
from repro.reram.tile import TileSpec, e_tile_spec


@dataclass(frozen=True)
class ZeroStorageResult:
    """Zeros stored when tiling one graph at two block sizes."""

    graph_name: str
    small_block: int
    large_block: int
    zeros_small: int
    zeros_large: int

    @property
    def ratio(self) -> float:
        """Fig. 3's bar: zeros(large) / zeros(small)."""
        if self.zeros_small == 0:
            raise ValueError("small-block mapping stored no zeros")
        return self.zeros_large / self.zeros_small


def zero_storage_study(
    graph: CSRGraph, small_block: int = 8, large_block: int = 128
) -> ZeroStorageResult:
    """Count zeros stored under both crossbar sizes for ``graph``."""
    if small_block >= large_block:
        raise ValueError("small block must be smaller than large block")
    small = block_tile_adjacency(graph, small_block)
    large = block_tile_adjacency(graph, large_block)
    return ZeroStorageResult(
        graph_name=graph.name,
        small_block=small_block,
        large_block=large_block,
        zeros_small=small.zeros_stored,
        zeros_large=large.zeros_stored,
    )


@dataclass(frozen=True)
class EPEDemand:
    """E-PE requirements of one batch-size setting (Fig. 6 support)."""

    batch_size: int
    num_inputs: int
    subgraph_nodes: int
    subgraph_entries: int
    block_mapping: BlockMapping
    tiles_needed: int


def epe_demand_for_beta(
    graph: CSRGraph,
    partition: PartitionResult,
    batch_size: int,
    tile: TileSpec | None = None,
    seed: int = 0,
) -> EPEDemand:
    """Measure the adjacency-storage demand of one merged input at ``beta``.

    Samples one representative merged sub-graph (deterministic per seed),
    tiles its adjacency at the E-PE block size, and reports blocks/tiles.
    """
    tile = tile or e_tile_spec()
    batcher = ClusterBatcher(graph, partition, batch_size, seed=seed)
    batch = batcher.first_batch()
    mapping = block_tile_adjacency(batch.subgraph, tile.crossbar_size)
    return EPEDemand(
        batch_size=batch_size,
        num_inputs=batcher.num_inputs,
        subgraph_nodes=batch.subgraph.num_nodes,
        subgraph_entries=mapping.nnz_entries,
        block_mapping=mapping,
        tiles_needed=mapping.tiles_needed(tile),
    )
