"""The config's two tile specs are the chip's only geometry description.

Timing once kept its own copy of the tiles, so a config with a 16-wide E
tile tiled the adjacency and charged its energy with 16 rows but
programmed it with the copy's 8, and a 256-wide V tile still counted
128-wide weight blocks in latency.  These tests evaluate non-default
tiles end to end and check each stage against the tile it runs on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.mapping import contiguous_mapping
from repro.graph.datasets import get_dataset_spec
from repro.reram import energy
from repro.reram.tile import e_tile_spec, v_tile_spec

CYCLE = 100e-9  # 10 MHz arrays (Table I)
WRITE_CYCLES_PER_ROW = 10
OPERAND_CYCLES = 16  # 16-bit operands through 1-bit DACs


def _resized(tile, size):
    return replace(tile, ima=replace(tile.ima, crossbar_size=size))


def _budgets(config, training):
    """(V IMAs, E crossbars) per stage, from the config's own tiles."""
    stage_sets = (2 if training else 1) * config.num_layers
    v_routers = len(config.v_routers()) // stage_sets
    e_routers = len(config.e_routers()) // stage_sets
    return (
        v_routers * config.tiles_per_router * config.v_tile.num_imas,
        e_routers * config.tiles_per_router * config.e_tile.adjacency_blocks_per_tile,
    )


def _evaluate(config, dataset, training):
    accelerator = ReGraphX(config)
    workload = accelerator.build_workload(dataset, scale=0.05, seed=0)
    report = accelerator.evaluate(
        workload,
        stage_map=contiguous_mapping(config, training),
        training=training,
    )
    return workload, report


@pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
def test_e_stage_programs_the_e_tile_rows(training):
    """Narrow E layers make the adjacency writes the E stages' bound."""
    config = ReGraphXConfig(e_tile=_resized(e_tile_spec(), 16))
    narrow = replace(get_dataset_spec("ppi"), hidden_dim=8, num_classes=4)
    workload, report = _evaluate(config, narrow, training)
    assert workload.block_mapping.block_size == 16
    _, e_crossbars = _budgets(config, training)
    rounds = -(-workload.block_mapping.nnz_blocks // e_crossbars)
    write = rounds * 16 * WRITE_CYCLES_PER_ROW * CYCLE
    e_stages = [s for s in report.compute_seconds if s.lstrip("B").startswith("E")]
    assert len(e_stages) == (2 if training else 1) * config.num_layers
    for stage in e_stages:
        assert report.compute_seconds[stage] >= write * (1 - 1e-12), stage


@pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
def test_v_stage_counts_v_tile_blocks(training):
    config = ReGraphXConfig(v_tile=_resized(v_tile_spec(), 256))
    workload, report = _evaluate(config, "ppi", training)
    n = workload.num_nodes_per_input
    v_imas, _ = _budgets(config, training)
    for i, (din, dout) in enumerate(workload.layer_dims, start=1):
        blocks = -(-din // 256) * -(-dout // 256)
        copies = v_imas // blocks
        waves = -(-n // copies) if copies else n * -(-blocks // v_imas)
        latency = waves * OPERAND_CYCLES * CYCLE
        assert report.compute_seconds[f"V{i}"] == pytest.approx(latency)
        if training:
            assert report.compute_seconds[f"BV{i}"] == pytest.approx(2 * latency)


def test_v_energy_counts_v_tile_blocks():
    tile = _resized(v_tile_spec(), 256)
    config = ReGraphXConfig(v_tile=tile)
    workload, report = _evaluate(config, "ppi", True)
    n = workload.num_nodes_per_input
    blocks = [-(-din // 256) * -(-dout // 256) for din, dout in workload.layer_dims]
    assert blocks == [2, 4, 4, 2]  # ppi: 50 -> 512 -> 512 -> 512 -> 121
    wave = energy.mac_wave_energy(256, 256, 8, slices=8)
    for b, (din, dout) in zip(blocks, workload.layer_dims):
        assert energy.v_layer_energy(tile, n, din, dout) == pytest.approx(
            n * 16 * b * wave
        )
    e_tile = config.e_tile
    nnz = workload.block_mapping.nnz_blocks
    expected = sum(
        3.0 * energy.v_layer_energy(tile, n, din, dout)
        + 2.0 * energy.e_layer_energy(e_tile, dout, nnz)
        for din, dout in workload.layer_dims
    )
    assert report.compute_energy_per_input == pytest.approx(expected)
