"""In-situ Multiply Accumulate unit (IMA): 8 crossbars + converters.

Per Table I, one IMA bundles 8 crossbars, 8 ADCs, and one 1-bit DAC per
row.  The 8 crossbars hold the 8 two-bit slices of a 16-bit weight block,
so a single IMA realizes one full-precision logical matrix of
``crossbar_size x crossbar_size``.  ``matvec`` runs the complete bit-serial
dance — 16 input waves x 8 slices, shift-and-add — and returns a real
matrix-vector product computed entirely by the functional crossbar model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reram.cells import ADCSpec, CellSpec, DACSpec, FixedPointFormat
from repro.reram.crossbar import Crossbar


@dataclass(frozen=True)
class IMASpec:
    """Structural parameters of one IMA (Table I)."""

    crossbar_size: int = 128
    num_crossbars: int = 8
    adc: ADCSpec = ADCSpec(8)
    dac: DACSpec = DACSpec(1)
    cell: CellSpec = CellSpec(2)
    data_format: FixedPointFormat = FixedPointFormat(16, 12)

    def __post_init__(self) -> None:
        if self.crossbar_size < 1:
            raise ValueError("crossbar size must be positive")
        slices_needed = -(-self.data_format.total_bits // self.cell.bits)
        if self.num_crossbars < slices_needed:
            raise ValueError(
                f"{self.num_crossbars} crossbars cannot hold "
                f"{self.data_format.total_bits}-bit weights in "
                f"{self.cell.bits}-bit cells ({slices_needed} slices needed)"
            )

    @property
    def weight_slices(self) -> int:
        """Crossbars used as bit-slices of one logical weight block."""
        return -(-self.data_format.total_bits // self.cell.bits)


class IMA:
    """One IMA instance with programmable logical weight block."""

    def __init__(self, spec: IMASpec | None = None) -> None:
        self.spec = spec or IMASpec()
        self.crossbars = [
            Crossbar(self.spec.crossbar_size, self.spec.crossbar_size, self.spec.cell)
            for _ in range(self.spec.num_crossbars)
        ]
        self._programmed_shape: tuple[int, int] | None = None

    def program_weights(self, weights: np.ndarray) -> None:
        """Quantize ``weights`` and distribute bit-slices to the crossbars.

        ``weights`` may be smaller than the crossbar (padding with zeros);
        larger blocks must be tiled across IMAs by the caller.
        """
        weights = np.asarray(weights, dtype=np.float64)
        size = self.spec.crossbar_size
        if weights.ndim != 2 or weights.shape[0] > size or weights.shape[1] > size:
            raise ValueError(
                f"weight block {weights.shape} does not fit a {size}x{size} crossbar"
            )
        codes = self.spec.data_format.quantize(weights)
        padded = np.zeros((size, size), dtype=np.int64)
        padded[: weights.shape[0], : weights.shape[1]] = codes
        slices = self.spec.data_format.slice_bits(padded, self.spec.cell.bits)
        for crossbar, weight_slice in zip(self.crossbars, slices):
            crossbar.program(weight_slice)
        self._programmed_shape = weights.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Full-precision ``W^T x`` via bit-serial analog MACs.

        Args:
            x: input vector of length == programmed rows.

        Returns:
            Real-valued product of length == programmed cols, subject only
            to the 16-bit fixed-point quantization of weights and inputs.
        """
        if self._programmed_shape is None:
            raise RuntimeError("IMA used before programming weights")
        rows, cols = self._programmed_shape
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (rows,):
            raise ValueError(f"input shape {x.shape} does not match block rows {rows}")
        fmt = self.spec.data_format
        x_codes = fmt.quantize(x)
        size = self.spec.crossbar_size
        x_padded = np.zeros(size, dtype=np.int64)
        x_padded[:rows] = x_codes
        x_bits = [
            np.asarray(b, dtype=np.int64)
            for b in fmt.slice_bits(x_padded, self.spec.dac.bits)
        ]
        cell_bits = self.spec.cell.bits
        n_slices = self.spec.weight_slices
        # Accumulate sum over input-bit waves and weight slices with the
        # appropriate binary shifts (ISAAC shift-and-add pipeline).
        acc = np.zeros(size, dtype=np.int64)
        for bit_idx, wave in enumerate(x_bits):
            wave_acc = np.zeros(size, dtype=np.int64)
            for s in range(n_slices):
                wave_acc += self.crossbars[s].mac_wave(wave) << (cell_bits * s)
            acc += wave_acc << bit_idx
        # Two's-complement correction: both operands were represented as
        # unsigned total_bits-wide codes; subtract the wrap contributions.
        total = np.int64(1) << fmt.total_bits
        w_codes = fmt.combine_slices(
            [xb.stored() for xb in self.crossbars[:n_slices]], cell_bits
        )
        w_unsigned_minus_signed = ((w_codes < 0) * total).astype(np.int64)
        x_unsigned_minus_signed = ((x_padded < 0) * total).astype(np.int64)
        acc -= x_unsigned_minus_signed @ (w_codes + w_unsigned_minus_signed)
        acc -= x_padded @ w_unsigned_minus_signed
        result = acc.astype(np.float64) / (fmt.scale * fmt.scale)
        return result[:cols]

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Batched :meth:`matvec` over the rows of ``x`` (``x @ W``)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
        return np.stack([self.matvec(row) for row in x])

    @property
    def total_reads(self) -> int:
        return sum(xb.read_count for xb in self.crossbars)

    @property
    def total_writes(self) -> int:
        return sum(xb.write_count for xb in self.crossbars)
