"""Deterministic ReRAM latency model (paper Sec. V.A, following ISAAC [6]).

"ReRAM arrays always execute instructions in-order and the instruction
latencies are deterministic" — so layer latencies are closed-form.  Every
function takes the :class:`~repro.reram.tile.TileSpec` the stage runs on
(the config's ``v_tile`` for V stages, ``e_tile`` for E stages) and reads
the chip geometry from it alone: operand bits (``ima.data_format``), DAC
cycles (``ima.dac``) and block size (``crossbar_size``).  The two
remaining constants are Table I's:

* :data:`CLOCK_HZ` — a crossbar consumes one DAC-wide input wave per
  100 ns cycle (10 MHz).  A 16-bit operand through 1-bit DACs therefore
  takes 16 cycles, regardless of the crossbar size (the column ADCs keep
  up by design, as in ISAAC).
* :data:`WRITE_CYCLES_PER_ROW` — programming one crossbar row takes 10
  cycles (ReRAM writes are ~10x slower than reads).

The layer kinds:

* A **V-layer** multiplying ``num_vectors`` activation rows by a
  ``(in_dim, out_dim)`` weight needs ``ceil(in/M) * ceil(out/M)`` logical
  blocks of the V tile's ``M x M`` crossbars; given ``num_imas`` IMAs the
  mapper replicates the block set and shares the vector batch across
  copies.
* An **E-layer** applies ``nnz_blocks`` binary ``M x M`` adjacency blocks
  of the E tile to ``feature_dim`` feature columns; every block has its
  own crossbar (or the block set is processed in rounds if crossbars are
  scarce), and feature columns stream bit-serially one after another.
* **Writes** (programming adjacency blocks when a new sub-graph enters the
  pipeline) take :data:`WRITE_CYCLES_PER_ROW` per E crossbar row and
  happen in parallel across crossbars (double-buffered, so they overlap
  compute of the previous sub-graph; they still bound the stage from
  below).
"""

from __future__ import annotations

from repro.reram.tile import TileSpec
from repro.utils.units import MHZ

#: ReRAM array clock (Table I: 10 MHz).
CLOCK_HZ = 10 * MHZ
#: Seconds per array cycle.
CYCLE_TIME = 1.0 / CLOCK_HZ
#: Cycles to program one crossbar row (Table I).
WRITE_CYCLES_PER_ROW = 10


def vector_cycles(tile: TileSpec) -> int:
    """Cycles to stream one full-precision operand through the tile's DACs."""
    return tile.ima.dac.cycles_for(tile.ima.data_format.total_bits)


def weight_blocks(tile: TileSpec, in_dim: int, out_dim: int) -> int:
    """Logical crossbar-sized blocks one weight matrix occupies."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError("layer dimensions must be positive")
    size = tile.crossbar_size
    return (-(-in_dim // size)) * (-(-out_dim // size))


def v_layer_latency(
    tile: TileSpec, num_vectors: int, in_dim: int, out_dim: int, num_imas: int
) -> float:
    """Seconds to push ``num_vectors`` rows through one V-layer.

    ``num_imas`` is the IMA budget the mapping assigned to this layer.
    The weight block set is replicated ``copies`` times; each copy serves
    an equal share of the vectors.  If the budget cannot even hold one
    copy, block rounds serialize.
    """
    if num_vectors < 0:
        raise ValueError("num_vectors must be non-negative")
    if num_imas < 1:
        raise ValueError("a layer needs at least one IMA")
    if num_vectors == 0:
        return 0.0
    blocks = weight_blocks(tile, in_dim, out_dim)
    copies = num_imas // blocks
    if copies >= 1:
        waves = -(-num_vectors // copies)
    else:
        rounds = -(-blocks // num_imas)
        waves = num_vectors * rounds
    return waves * vector_cycles(tile) * CYCLE_TIME


def e_layer_latency(
    tile: TileSpec, feature_dim: int, nnz_blocks: int, num_crossbars: int
) -> float:
    """Seconds for one E-layer pass (SpMM of the blocked adjacency).

    Every nonzero adjacency block multiplies its input slice for each of
    ``feature_dim`` feature columns, one operand's cycles per column.
    Blocks run concurrently across crossbars, so below the crossbar
    budget the pass takes a *fixed* ``feature_dim x 16`` cycles; above
    it, block rounds serialize (crossbars are reprogrammed between
    rounds).  Blocks are stored once — spare crossbars buffer the next
    sub-graph's load rather than holding replicas, because ReRAM writes
    are too expensive to duplicate per input.
    """
    if feature_dim < 1:
        raise ValueError("feature_dim must be positive")
    if nnz_blocks < 0:
        raise ValueError("nnz_blocks must be non-negative")
    if num_crossbars < 1:
        raise ValueError("need at least one crossbar")
    if nnz_blocks == 0:
        return 0.0
    rounds = -(-nnz_blocks // num_crossbars)
    return feature_dim * rounds * vector_cycles(tile) * CYCLE_TIME


def adjacency_write_latency(
    tile: TileSpec, nnz_blocks: int, num_crossbars: int
) -> float:
    """Seconds to program a sub-graph's adjacency blocks (parallel across
    crossbars, serialized over rounds if crossbars are scarce)."""
    if nnz_blocks < 0 or num_crossbars < 1:
        raise ValueError("invalid write request")
    if nnz_blocks == 0:
        return 0.0
    rounds = -(-nnz_blocks // num_crossbars)
    return rounds * tile.crossbar_size * WRITE_CYCLES_PER_ROW * CYCLE_TIME
