"""ReRAM substrate: crossbar MAC arrays, IMAs, tiles, timing and energy.

Implements the deterministic ReRAM execution model the paper adopts from
ISAAC [6] / PipeLayer [7] (large 128x128 crossbars for dense V-layers) and
GraphR [8] (small 8x8 crossbars for sparse E-layers).  The functional model
computes real quantized MACs; the timing/energy models are deterministic,
as stated in paper Sec. V.A.
"""

from repro.reram.cells import ADCSpec, CellSpec, DACSpec, FixedPointFormat
from repro.reram.crossbar import Crossbar
from repro.reram.ima import IMA, IMASpec
from repro.reram.sparse_mapping import BlockMapping, block_tile_adjacency
from repro.reram.tile import ReRAMTile, TileSpec, e_tile_spec, v_tile_spec
from repro.reram.variation import (
    NoisyCrossbar,
    VariationModel,
    noisy_matvec,
    relative_error_study,
)

__all__ = [
    "CellSpec",
    "ADCSpec",
    "DACSpec",
    "FixedPointFormat",
    "Crossbar",
    "IMA",
    "IMASpec",
    "ReRAMTile",
    "TileSpec",
    "v_tile_spec",
    "e_tile_spec",
    "BlockMapping",
    "block_tile_adjacency",
    "VariationModel",
    "NoisyCrossbar",
    "noisy_matvec",
    "relative_error_study",
]
