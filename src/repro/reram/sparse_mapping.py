"""Block tiling of sparse adjacency matrices onto small crossbars.

This is the heterogeneity argument of the paper (Sec. IV.A, Fig. 3): the
``N x N`` adjacency matrix is cut into ``M x M`` blocks; all-zero blocks are
discarded and only nonzero blocks are mapped to ``M x M`` ReRAM crossbars.
Smaller ``M`` discards far more zeros — the paper reports up to 7X more
zeros stored by 128x128 blocks than by 8x8 blocks.

The mapper also computes the E-PE demand (how many tiles are needed to hold
a sub-graph's blocks), which drives the batch-size trade-off of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import CSRGraph
from repro.reram.tile import TileSpec, e_tile_spec


@dataclass(frozen=True)
class BlockMapping:
    """Result of tiling one adjacency matrix into ``block_size`` blocks.

    Attributes:
        block_size: the crossbar edge M.
        num_nodes: matrix dimension N.
        nnz_entries: stored nonzero entries (directed adjacency entries).
        nnz_blocks: blocks containing at least one nonzero.
        block_rows: distinct block-row ids with at least one nonzero block.
        block_ids: sorted array of linearized nonzero block ids
            (``block_row * num_block_cols + block_col``).
        blocks_per_block_row: nonzero block count per occupied block-row.
    """

    block_size: int
    num_nodes: int
    nnz_entries: int
    nnz_blocks: int
    block_rows: int
    block_ids: np.ndarray
    blocks_per_block_row: np.ndarray

    @property
    def num_block_cols(self) -> int:
        return -(-self.num_nodes // self.block_size)

    @property
    def cells_used(self) -> int:
        """ReRAM cells consumed by the mapped (nonzero) blocks."""
        return self.nnz_blocks * self.block_size * self.block_size

    @property
    def zeros_stored(self) -> int:
        """Zero cells inside mapped blocks — the Fig. 3 quantity."""
        return self.cells_used - self.nnz_entries

    @property
    def density(self) -> float:
        """Fraction of mapped cells that hold actual edges."""
        return self.nnz_entries / self.cells_used if self.cells_used else 0.0

    def tiles_needed(self, tile: TileSpec | None = None) -> int:
        """E-tiles required to store every nonzero block."""
        tile = tile or e_tile_spec()
        if tile.crossbar_size != self.block_size:
            raise ValueError(
                f"tile crossbar size {tile.crossbar_size} != block size "
                f"{self.block_size}"
            )
        per_tile = tile.adjacency_blocks_per_tile
        return -(-self.nnz_blocks // per_tile)


def block_tile_adjacency(graph: CSRGraph, block_size: int) -> BlockMapping:
    """Tile ``graph``'s adjacency into ``block_size`` square blocks.

    Works directly on the CSR arrays (no dense materialization), so it
    scales to the full Table II graph sizes.
    """
    if block_size < 1:
        raise ValueError(f"block size must be positive, got {block_size}")
    n = graph.num_nodes
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    cols = graph.indices
    num_block_cols = -(-n // block_size)
    block_id = (rows // block_size) * num_block_cols + (cols // block_size)
    block_ids = np.unique(block_id)
    block_row_of = block_ids // num_block_cols
    occupied_rows, counts = np.unique(block_row_of, return_counts=True)
    del occupied_rows
    return BlockMapping(
        block_size=block_size,
        num_nodes=n,
        nnz_entries=int(cols.size),
        nnz_blocks=int(block_ids.size),
        block_rows=int(counts.size),
        block_ids=block_ids,
        blocks_per_block_row=counts,
    )

