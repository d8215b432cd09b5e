"""ReRAM tiles: the V-PE and E-PE building blocks (paper Table I).

A tile bundles 12 IMAs plus peripheral buffers.  The two tile flavors
differ only in crossbar geometry and ADC resolution:

* **V-tile** — 128x128 crossbars, 8-bit ADCs.  The 8 crossbars of an IMA
  hold the 8 two-bit slices of one 16-bit logical weight block, so a V-tile
  stores 12 dense 128x128 weight blocks.
* **E-tile** — 8x8 crossbars, 6-bit ADCs.  Adjacency blocks are *binary*
  (the symmetric normalization ``D^-1/2 A D^-1/2`` is folded into the
  digital periphery as per-node scale factors), so every crossbar holds an
  independent 8x8 block: an E-tile stores ``12 x 8 = 96`` adjacency blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reram.cells import ADCSpec, CellSpec, DACSpec, FixedPointFormat
from repro.reram.ima import IMA, IMASpec


@dataclass(frozen=True)
class TileSpec:
    """Structural description of one ReRAM tile."""

    kind: str  # "v" or "e"
    ima: IMASpec
    num_imas: int = 12

    def __post_init__(self) -> None:
        if self.kind not in ("v", "e"):
            raise ValueError(f"tile kind must be 'v' or 'e', got {self.kind!r}")
        if self.num_imas < 1:
            raise ValueError("a tile needs at least one IMA")

    @property
    def crossbar_size(self) -> int:
        return self.ima.crossbar_size

    @property
    def weight_blocks_per_tile(self) -> int:
        """Dense full-precision logical weight blocks a V-tile holds."""
        return self.num_imas

    @property
    def adjacency_blocks_per_tile(self) -> int:
        """Binary adjacency blocks an E-tile holds (one per crossbar)."""
        return self.num_imas * self.ima.num_crossbars

    @property
    def cells_per_tile(self) -> int:
        return (
            self.num_imas
            * self.ima.num_crossbars
            * self.ima.crossbar_size
            * self.ima.crossbar_size
        )


def v_tile_spec() -> TileSpec:
    """Table I V-PE tile: 12 IMAs, 8x 128x128 crossbars, 8-bit ADCs."""
    return TileSpec(
        kind="v",
        ima=IMASpec(
            crossbar_size=128,
            num_crossbars=8,
            adc=ADCSpec(8),
            dac=DACSpec(1),
            cell=CellSpec(2),
            data_format=FixedPointFormat(16, 12),
        ),
    )


def e_tile_spec() -> TileSpec:
    """Table I E-PE tile: 12 IMAs, 8x 8x8 crossbars, 6-bit ADCs."""
    return TileSpec(
        kind="e",
        ima=IMASpec(
            crossbar_size=8,
            num_crossbars=8,
            adc=ADCSpec(6),
            dac=DACSpec(1),
            cell=CellSpec(2),
            data_format=FixedPointFormat(16, 12),
        ),
    )


class ReRAMTile:
    """A functional tile instance: 12 programmable IMAs.

    Used by the functional examples/tests; the large-scale experiments use
    the deterministic timing/energy models instead of instantiating
    millions of cells.
    """

    def __init__(self, spec: TileSpec) -> None:
        self.spec = spec
        self.imas = [IMA(spec.ima) for _ in range(spec.num_imas)]

    def program_layer(self, weights: np.ndarray) -> list[tuple[int, int, int]]:
        """Tile a dense weight matrix across this tile's IMAs.

        The matrix is cut into ``crossbar_size``-square blocks, assigned to
        IMAs in row-major order.  Returns ``(ima_index, block_row,
        block_col)`` for each programmed block.

        Raises:
            ValueError: if the matrix needs more blocks than the tile has IMAs
                (callers must split across tiles first).
        """
        weights = np.asarray(weights, dtype=np.float64)
        size = self.spec.crossbar_size
        n_br = -(-weights.shape[0] // size)
        n_bc = -(-weights.shape[1] // size)
        if n_br * n_bc > len(self.imas):
            raise ValueError(
                f"{weights.shape} needs {n_br * n_bc} blocks; tile has "
                f"{len(self.imas)} IMAs"
            )
        placements: list[tuple[int, int, int]] = []
        idx = 0
        for br in range(n_br):
            for bc in range(n_bc):
                block = weights[br * size:(br + 1) * size, bc * size:(bc + 1) * size]
                self.imas[idx].program_weights(block)
                placements.append((idx, br, bc))
                idx += 1
        self._placements = placements
        self._shape = weights.shape
        return placements

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Compute ``x @ W`` for the programmed layer using the IMAs."""
        if not getattr(self, "_placements", None):
            raise RuntimeError("tile used before program_layer")
        x = np.asarray(x, dtype=np.float64)
        rows, cols = self._shape
        if x.shape[1] != rows:
            raise ValueError(f"input width {x.shape[1]} != weight rows {rows}")
        size = self.spec.crossbar_size
        out = np.zeros((x.shape[0], cols))
        for ima_idx, br, bc in self._placements:
            r0, r1 = br * size, min((br + 1) * size, rows)
            c0, c1 = bc * size, min((bc + 1) * size, cols)
            out[:, c0:c1] += self.imas[ima_idx].matmul(x[:, r0:r1])[:, : c1 - c0]
        return out
