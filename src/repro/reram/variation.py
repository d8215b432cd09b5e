"""Device non-ideality modeling: conductance variation and stuck-at faults.

ReRAM accelerators are analog at heart; real deployments must tolerate
cycle-to-cycle/device-to-device conductance variation and stuck cells.
This module injects both into the functional crossbar model so the
library can quantify how much non-ideality the GNN workload tolerates —
a standard robustness study for ISAAC-lineage designs.

Model:

* **Lognormal conductance variation** — each programmed cell's effective
  weight is ``code * exp(N(0, sigma))`` (multiplicative, the accepted
  first-order model for oxide ReRAM).
* **Stuck-at faults** — a fraction of cells is stuck at zero conductance
  (stuck-off, the common failure) or at full scale (stuck-on).

Faults are drawn per *device* (fixed at program time); variation is drawn
per program operation.  Reached from the variation-robustness extension
benchmark and ``examples/robustness.py``; the paper pipeline models ideal
cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reram.cells import CellSpec, FixedPointFormat
from repro.reram.crossbar import Crossbar
from repro.utils.rng import rng_from_seed


@dataclass(frozen=True)
class VariationModel:
    """Non-ideality parameters.

    Attributes:
        sigma: lognormal sigma of the multiplicative conductance error
            (0 = ideal; published devices: 0.05-0.3).
        stuck_off_rate: fraction of cells stuck at zero conductance.
        stuck_on_rate: fraction of cells stuck at the maximum level.
        seed: RNG seed for fault placement and variation draws.
    """

    sigma: float = 0.0
    stuck_off_rate: float = 0.0
    stuck_on_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        for name in ("stuck_off_rate", "stuck_on_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.stuck_off_rate + self.stuck_on_rate > 1.0:
            raise ValueError("total fault rate cannot exceed 1")

    @property
    def is_ideal(self) -> bool:
        return self.sigma == 0 and self.stuck_off_rate == 0 and self.stuck_on_rate == 0

    def perturb(
        self, codes: np.ndarray, levels: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Effective analog conductances for integer cell ``codes``."""
        codes = np.asarray(codes, dtype=np.float64)
        effective = codes.copy()
        if self.sigma > 0:
            effective *= np.exp(rng.normal(0.0, self.sigma, size=codes.shape))
        total_rate = self.stuck_off_rate + self.stuck_on_rate
        if total_rate > 0:
            draw = rng.random(codes.shape)
            effective[draw < self.stuck_off_rate] = 0.0
            on_mask = (draw >= self.stuck_off_rate) & (draw < total_rate)
            effective[on_mask] = levels - 1
        return effective


class NoisyCrossbar(Crossbar):
    """A crossbar whose analog read path includes device non-idealities.

    Faults are fixed per device instance; variation is re-drawn whenever
    the crossbar is (re)programmed, matching write-time programming error.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        cell: CellSpec | None = None,
        variation: VariationModel | None = None,
    ) -> None:
        super().__init__(rows, cols, cell)
        self.variation = variation or VariationModel()
        self._rng = rng_from_seed(self.variation.seed)
        self._effective = np.zeros((rows, cols), dtype=np.float64)

    def program(self, codes: np.ndarray) -> None:
        super().program(codes)
        self._effective = self.variation.perturb(
            self._conductance, self.cell.levels, self._rng
        )

    def program_partial(self, row: int, col: int, block: np.ndarray) -> None:
        super().program_partial(row, col, block)
        self._effective = self.variation.perturb(
            self._conductance, self.cell.levels, self._rng
        )

    def mac_wave(self, input_bits: np.ndarray) -> np.ndarray:
        input_bits = np.asarray(input_bits, dtype=np.int64)
        if input_bits.shape != (self.rows,):
            raise ValueError(
                f"input shape {input_bits.shape} does not match rows {self.rows}"
            )
        if np.any((input_bits != 0) & (input_bits != 1)):
            raise ValueError("DAC drive must be binary (1-bit DACs, Table I)")
        self.read_count += 1
        return input_bits.astype(np.float64) @ self._effective


def _nonnegative_bitserial_mac(
    w_codes: np.ndarray,
    x_codes: np.ndarray,
    variation: VariationModel,
    fmt: FixedPointFormat,
    cell: CellSpec,
    seed_offset: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bit-serial product of non-negative codes through noisy crossbars.

    Returns the column vectors for two independent drive vectors packed in
    ``x_codes`` rows (positive and negative input parts share the arrays).
    """
    slices = fmt.slice_bits(w_codes, cell.bits)
    crossbars = []
    for idx, weight_slice in enumerate(slices):
        xb = NoisyCrossbar(
            *w_codes.shape,
            cell=cell,
            variation=VariationModel(
                sigma=variation.sigma,
                stuck_off_rate=variation.stuck_off_rate,
                stuck_on_rate=variation.stuck_on_rate,
                seed=variation.seed + seed_offset + idx,
            ),
        )
        xb.program(np.asarray(weight_slice))
        crossbars.append(xb)
    outputs = []
    for drive in x_codes:
        bits = fmt.slice_bits(drive, 1)
        acc = np.zeros(w_codes.shape[1], dtype=np.float64)
        for bit_idx, wave in enumerate(bits):
            wave_acc = np.zeros(w_codes.shape[1], dtype=np.float64)
            for s, xb in enumerate(crossbars):
                wave_acc += xb.mac_wave(np.asarray(wave)) * (1 << (cell.bits * s))
            acc += wave_acc * (1 << bit_idx)
        outputs.append(acc)
    return outputs[0], outputs[1]


def noisy_matvec(
    weights: np.ndarray,
    x: np.ndarray,
    variation: VariationModel,
    data_format: FixedPointFormat | None = None,
    cell: CellSpec | None = None,
) -> np.ndarray:
    """Compute ``x @ weights`` through bit-sliced noisy crossbars.

    Uses **differential (bipolar) encoding** — separate arrays for the
    positive and negative weight parts, and sign-split input drives — the
    standard ReRAM practice (GraphR/PipeLayer), because it keeps stored
    conductances proportional to |w| so multiplicative device error stays
    proportional to the actual operand magnitudes (two's-complement
    encoding would amplify noise by the unsigned offset).
    """
    fmt = data_format or FixedPointFormat()
    cell = cell or CellSpec()
    weights = np.asarray(weights, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (weights.shape[0],):
        raise ValueError(
            f"input shape {x.shape} does not match weight rows {weights.shape[0]}"
        )
    w_pos = fmt.quantize(np.maximum(weights, 0.0))
    w_neg = fmt.quantize(np.maximum(-weights, 0.0))
    x_codes = fmt.quantize(x)
    x_pos = np.maximum(x_codes, 0)
    x_neg = np.maximum(-x_codes, 0)
    drives = np.stack([x_pos, x_neg])
    pp, np_ = _nonnegative_bitserial_mac(w_pos, drives, variation, fmt, cell, 0)
    pn, nn = _nonnegative_bitserial_mac(w_neg, drives, variation, fmt, cell, 1000)
    acc = (pp + nn) - (pn + np_)
    return acc / (fmt.scale * fmt.scale)


def relative_error_study(
    variation: VariationModel,
    shape: tuple[int, int] = (64, 64),
    trials: int = 5,
    seed: int = 0,
) -> float:
    """Mean relative L2 error of noisy MACs vs the float reference."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = rng_from_seed(seed)
    errors = []
    for t in range(trials):
        w = rng.normal(scale=0.3, size=shape)
        x = rng.normal(scale=0.3, size=shape[0])
        got = noisy_matvec(
            w,
            x,
            VariationModel(
                sigma=variation.sigma,
                stuck_off_rate=variation.stuck_off_rate,
                stuck_on_rate=variation.stuck_on_rate,
                seed=variation.seed + 1000 * t,
            ),
        )
        ref = x @ w
        errors.append(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-12))
    return float(np.mean(errors))
