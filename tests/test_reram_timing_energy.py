"""Unit tests for the deterministic ReRAM timing and energy models."""

from dataclasses import replace

import pytest

from repro.core.config import ReGraphXConfig
from repro.reram import energy, timing
from repro.reram.tile import e_tile_spec, v_tile_spec

V_TILE = v_tile_spec()
E_TILE = e_tile_spec()


class TestTiming:
    def test_cycle_time(self):
        assert timing.CYCLE_TIME == pytest.approx(100e-9)

    def test_vector_cycles(self):
        # 16-bit through 1-bit DACs, on either tile kind.
        assert timing.vector_cycles(V_TILE) == timing.vector_cycles(E_TILE) == 16

    def test_v_layer_blocks(self):
        assert timing.weight_blocks(V_TILE, 128, 128) == 1
        assert timing.weight_blocks(V_TILE, 129, 128) == 2
        assert timing.weight_blocks(V_TILE, 602, 512) == 5 * 4

    def test_v_layer_replication(self):
        # 1 block, 10 IMAs -> 10 copies -> 100 vectors in 10 waves.
        lat = timing.v_layer_latency(V_TILE, 100, 128, 128, num_imas=10)
        assert lat == pytest.approx(10 * 16 * 100e-9)

    def test_v_layer_serialized_rounds(self):
        # 4 blocks, 2 IMAs -> 2 rounds per vector.
        lat = timing.v_layer_latency(V_TILE, 10, 256, 256, num_imas=2)
        assert lat == pytest.approx(10 * 2 * 16 * 100e-9)

    def test_v_layer_zero_vectors(self):
        assert timing.v_layer_latency(V_TILE, 0, 128, 128, 1) == 0.0

    def test_v_layer_rejects_bad_args(self):
        with pytest.raises(ValueError):
            timing.v_layer_latency(V_TILE, -1, 128, 128, 1)
        with pytest.raises(ValueError):
            timing.v_layer_latency(V_TILE, 1, 128, 128, 0)
        with pytest.raises(ValueError):
            timing.weight_blocks(V_TILE, 0, 5)

    def test_e_layer_fixed_below_capacity(self):
        """Below the crossbar budget the latency is independent of blocks."""
        a = timing.e_layer_latency(E_TILE, 128, 100, num_crossbars=6144)
        b = timing.e_layer_latency(E_TILE, 128, 6144, num_crossbars=6144)
        assert a == b == pytest.approx(128 * 16 * 100e-9)

    def test_e_layer_rounds_above_capacity(self):
        one = timing.e_layer_latency(E_TILE, 128, 6144, 6144)
        three = timing.e_layer_latency(E_TILE, 128, 3 * 6144, 6144)
        assert three == pytest.approx(3 * one)

    def test_e_layer_zero_blocks(self):
        assert timing.e_layer_latency(E_TILE, 128, 0, 100) == 0.0

    def test_e_layer_rejects_bad_args(self):
        with pytest.raises(ValueError):
            timing.e_layer_latency(E_TILE, 0, 10, 10)
        with pytest.raises(ValueError):
            timing.e_layer_latency(E_TILE, 10, -1, 10)
        with pytest.raises(ValueError):
            timing.e_layer_latency(E_TILE, 10, 1, 0)

    def test_write_latencies(self):
        lat = timing.adjacency_write_latency(E_TILE, 100, 6144)
        assert lat == pytest.approx(8 * 10 * 100e-9)
        assert timing.adjacency_write_latency(E_TILE, 0, 1) == 0.0
        rounds2 = timing.adjacency_write_latency(E_TILE, 2 * 6144, 6144)
        assert rounds2 == pytest.approx(2 * lat)

    def test_latency_monotone_in_vectors(self):
        lats = [
            timing.v_layer_latency(V_TILE, n, 256, 256, num_imas=8)
            for n in (10, 100, 1000)
        ]
        assert lats[0] <= lats[1] <= lats[2]


class TestEnergy:
    def test_adc_walden_scaling(self):
        base = energy.ADC_SAMPLE_8BIT
        assert energy.adc_sample(8) == pytest.approx(base)
        assert energy.adc_sample(6) == pytest.approx(base / 4)
        assert energy.adc_sample(10) == pytest.approx(base * 4)

    def test_mac_wave_energy_positive_and_scales(self):
        small = energy.mac_wave_energy(8, 8, 6, slices=1)
        big = energy.mac_wave_energy(128, 128, 8, slices=8)
        assert 0 < small < big

    def test_v_layer_energy_linear_in_vectors(self):
        e1 = energy.v_layer_energy(V_TILE, 10, 128, 128)
        e2 = energy.v_layer_energy(V_TILE, 20, 128, 128)
        assert e2 == pytest.approx(2 * e1)

    def test_v_layer_energy_scales_with_blocks(self):
        e1 = energy.v_layer_energy(V_TILE, 10, 128, 128)
        e4 = energy.v_layer_energy(V_TILE, 10, 256, 256)
        assert e4 == pytest.approx(4 * e1)

    def test_e_layer_energy_linear_in_blocks(self):
        e1 = energy.e_layer_energy(E_TILE, 128, 100)
        e2 = energy.e_layer_energy(E_TILE, 128, 200)
        assert e2 == pytest.approx(2 * e1)

    def test_write_energies(self):
        assert energy.adjacency_write_energy(E_TILE, 10) == pytest.approx(
            10 * 64 * energy.CELL_WRITE
        )
        assert energy.adjacency_write_energy(E_TILE, 0) == 0.0

    def test_zero_work_zero_energy(self):
        assert energy.v_layer_energy(V_TILE, 0, 128, 128) == 0.0
        assert energy.e_layer_energy(E_TILE, 128, 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            energy.v_layer_energy(V_TILE, -1, 128, 128)
        with pytest.raises(ValueError):
            energy.v_layer_energy(V_TILE, 1, 0, 128)
        with pytest.raises(ValueError):
            energy.e_layer_energy(E_TILE, 0, 10)
        with pytest.raises(ValueError):
            energy.adjacency_write_energy(E_TILE, -1)
        with pytest.raises(ValueError):
            energy.mac_wave_energy(0, 8, 6, 1)
        with pytest.raises(ValueError):
            energy.adc_sample(0)

    def test_spec_rejects_negative_constants(self):
        # The static draw is the one energy value a configuration sets.
        with pytest.raises(ValueError, match="static_power_watts"):
            ReGraphXConfig(static_power_watts=-1.0)


def _wide(tile, size):
    return replace(tile, ima=replace(tile.ima, crossbar_size=size))


class TestTileGeometry:
    """Timing and energy read every geometry value from the tile passed."""

    def test_write_rows_follow_the_e_tile(self):
        lat = timing.adjacency_write_latency(_wide(E_TILE, 16), 1000, 6144)
        assert lat == pytest.approx(16 * 10 * 100e-9)

    def test_operand_bits_follow_the_tile(self):
        fmt = replace(E_TILE.ima.data_format, total_bits=8, frac_bits=4)
        narrow = replace(E_TILE, ima=replace(E_TILE.ima, data_format=fmt))
        assert timing.vector_cycles(narrow) == 8
        assert energy.e_layer_energy(narrow, 16, 10) == pytest.approx(
            energy.e_layer_energy(E_TILE, 16, 10) / 2
        )

    def test_adc_bits_follow_the_tile(self):
        adc = replace(E_TILE.ima.adc, bits=8)
        coarse = replace(E_TILE, ima=replace(E_TILE.ima, adc=adc))
        assert energy.e_layer_energy(coarse, 16, 10) > energy.e_layer_energy(
            E_TILE, 16, 10
        )
