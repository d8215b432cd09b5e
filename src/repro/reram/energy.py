"""Deterministic energy model for ReRAM computation.

Per-operation energies follow the ISAAC [6] / GraphR [8] component budgets.
The dominant term is ADC conversion (as in ISAAC, where the ADCs consume
~58% of IMA power); crossbar reads and DAC drives are comparatively cheap,
writes are expensive but rare.  Values are per-event so totals fall out of
the same operation counts the timing model uses.

Like :mod:`repro.reram.timing`, every layer function takes the
:class:`~repro.reram.tile.TileSpec` the stage runs on (the config's
``v_tile`` or ``e_tile``) and reads the geometry from it alone: operand
bits, block size, weight slices and ADC bits.  The chip's static draw is
a configuration value, ``ReGraphXConfig.static_power_watts``, because
architecture sweeps rescale it with the tile count.

The per-event constants below are reference points (documented, not
calibrated to the paper's results).  The arrays run at 10 MHz (Table I),
so the ADCs are low-rate SAR converters, not ISAAC's 1.28 GS/s pipelined
parts; we use Walden/Murmann-survey figures of ~1 fJ per conversion step:
* 8-bit SAR ADC at ~10 MS/s: 2^8 steps -> ~0.26 pJ per sample.
* 6-bit SAR ADC: 2^6 steps -> ~0.064 pJ per sample.
* 1-bit DAC row driver: ~10 fJ per wave.
* Crossbar read: ~0.02 fJ per cell per wave (low-current 2-bit 1T1R).
* ReRAM cell write: ~1 pJ per cell (SET/RESET pulse energy).
* Peripheral (S+H, shift-and-add) ~50 fJ per wave per crossbar.
"""

from __future__ import annotations

from repro.reram.tile import TileSpec
from repro.reram.timing import weight_blocks
from repro.utils.units import PICO

#: One 8-bit ADC conversion (joules); other resolutions scale from it.
ADC_SAMPLE_8BIT = 0.256 * PICO
#: One DAC drive of one crossbar row per input wave.
DAC_WAVE_PER_ROW = 0.01 * PICO
#: One cell read per input wave (0.02 fJ).
CROSSBAR_READ_PER_CELL = 0.00002 * PICO
#: Programming one ReRAM cell.
CELL_WRITE = 1.0 * PICO
#: Static/peripheral overhead folded per MAC wave per crossbar (drivers,
#: sample-and-hold, shift-and-add logic).
PERIPHERAL_PER_WAVE = 0.05 * PICO


def adc_sample(bits: int) -> float:
    """Energy of one ADC conversion at ``bits`` resolution.

    ADC energy scales ~2x per extra bit (Walden figure of merit); we
    anchor at the 8-bit ISAAC point.
    """
    if bits < 1:
        raise ValueError("ADC resolution must be positive")
    return ADC_SAMPLE_8BIT * (2.0 ** (bits - 8))


def mac_wave_energy(rows: int, cols: int, adc_bits: int, slices: int) -> float:
    """Energy of one full input-bit wave on one logical block.

    One wave drives ``rows`` DACs on each of ``slices`` crossbars, reads
    ``rows x cols`` cells per crossbar, and digitizes ``cols`` columns per
    crossbar.
    """
    if rows < 1 or cols < 1 or slices < 1:
        raise ValueError("wave geometry must be positive")
    per_crossbar = (
        rows * DAC_WAVE_PER_ROW
        + rows * cols * CROSSBAR_READ_PER_CELL
        + cols * adc_sample(adc_bits)
        + PERIPHERAL_PER_WAVE
    )
    return slices * per_crossbar


def v_layer_energy(
    tile: TileSpec, num_vectors: int, in_dim: int, out_dim: int
) -> float:
    """Energy of a dense V-layer pass over the tile's weight blocks
    (independent of replication — copies do proportionally less work
    each)."""
    if num_vectors < 0:
        raise ValueError("num_vectors must be non-negative")
    ima = tile.ima
    blocks = weight_blocks(tile, in_dim, out_dim)
    size = ima.crossbar_size
    wave = mac_wave_energy(size, size, ima.adc.bits, ima.weight_slices)
    return num_vectors * ima.data_format.total_bits * blocks * wave


def e_layer_energy(tile: TileSpec, feature_dim: int, nnz_blocks: int) -> float:
    """Energy of a sparse E-layer pass (binary blocks: one slice)."""
    if feature_dim < 1 or nnz_blocks < 0:
        raise ValueError("invalid E-layer energy request")
    ima = tile.ima
    size = ima.crossbar_size
    wave = mac_wave_energy(size, size, ima.adc.bits, slices=1)
    return nnz_blocks * feature_dim * ima.data_format.total_bits * wave


def adjacency_write_energy(tile: TileSpec, nnz_blocks: int) -> float:
    """Energy to program one sub-graph's adjacency blocks."""
    if nnz_blocks < 0:
        raise ValueError("nnz_blocks must be non-negative")
    size = tile.crossbar_size
    return nnz_blocks * size * size * CELL_WRITE
