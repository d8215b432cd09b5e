"""Unit tests for the architecture configuration and stage mapping."""

import numpy as np
import pytest

from repro.core.config import ReGraphXConfig
from repro.core.mapping import (
    StageMap,
    anneal_mapping,
    communication_legs,
    contiguous_mapping,
    random_mapping,
    stage_names,
)


class TestConfig:
    config = ReGraphXConfig()

    def test_table1_resource_counts(self):
        """Paper Table I / Sec. V.A: 64 V-PEs on 1 tier, 128 E-PEs on 2."""
        assert len(self.config.v_routers()) == 64
        assert len(self.config.e_routers()) == 128
        assert self.config.num_v_tiles == 256
        assert self.config.num_e_tiles == 512
        assert self.config.num_v_imas == 256 * 12
        assert self.config.num_e_crossbars == 512 * 96

    def test_sandwich_structure(self):
        """V tier in the middle, E tiers above and below (Fig. 2)."""
        assert self.config.v_tier == 1
        assert self.config.e_tiers == (0, 2)
        topo = self.config.topology
        assert all(topo.coords(r)[2] == 1 for r in self.config.v_routers())

    def test_pipeline_geometry(self):
        assert self.config.num_pipeline_stages == 16
        assert self.config.stage_routers() == (8, 16)
        assert self.config.stage_budgets() == (8 * 4 * 12, 16 * 4 * 96)

    def test_summary_keys(self):
        summary = self.config.summary()
        assert summary["mesh"] == "8x8x3"
        assert summary["v_crossbar"] == "128x128"
        assert summary["e_crossbar"] == "8x8"

    def test_validation(self):
        with pytest.raises(ValueError):
            ReGraphXConfig(v_tier=5)
        with pytest.raises(ValueError):
            ReGraphXConfig(tiers=1)
        with pytest.raises(ValueError):
            ReGraphXConfig(tiles_per_router=0)
        with pytest.raises(ValueError):
            ReGraphXConfig(num_layers=0)
        with pytest.raises(ValueError):
            ReGraphXConfig(mesh_width=2, mesh_height=2, num_layers=4)  # too few routers


class TestStageNames:
    def test_order_two_layers(self):
        assert stage_names(2) == ["V1", "E1", "V2", "E2", "BE2", "BV2", "BE1", "BV1"]

    def test_count(self):
        assert len(stage_names(4)) == 16

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            stage_names(0)

    def test_legs_reference_real_stages(self):
        names = set(stage_names(4))
        for src, dst in communication_legs(4):
            assert src in names
            assert dst in names

    def test_legs_include_forward_backward_multicast(self):
        legs = communication_legs(3)
        assert ("E1", "BV2") in legs
        assert ("E1", "BE1") in legs
        assert ("BV2", "BE1") in legs


class TestStageMap:
    config = ReGraphXConfig()

    def test_contiguous_complete_and_disjoint(self):
        sm = contiguous_mapping(self.config)
        assert set(sm.stages) == set(stage_names(4))
        all_routers = [r for s in sm.stages for r in sm.routers(s)]
        assert len(all_routers) == len(set(all_routers)) == 192

    def test_contiguous_respects_tiers(self):
        sm = contiguous_mapping(self.config)
        v_set = set(self.config.v_routers())
        e_set = set(self.config.e_routers())
        for stage in sm.stages:
            target = v_set if stage.lstrip("B").startswith("V") else e_set
            assert set(sm.routers(stage)) <= target

    def test_random_mapping_valid(self):
        sm = random_mapping(self.config, seed=1)
        all_routers = [r for s in sm.stages for r in sm.routers(s)]
        assert len(set(all_routers)) == 192

    def test_random_mapping_differs_from_contiguous(self):
        assert random_mapping(self.config, seed=1).assignment != contiguous_mapping(
            self.config
        ).assignment

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            StageMap({"A": (1, 2), "B": (2, 3)})

    def test_empty_stage_rejected(self):
        with pytest.raises(ValueError, match="no routers"):
            StageMap({"A": ()})

    def test_repeated_router_in_a_stage_rejected(self):
        """Sixteen copies of one router would land the stage's whole
        block grid on it."""
        assignment = dict(contiguous_mapping(self.config).assignment)
        assignment["E1"] = (0,) * len(assignment["E1"])
        with pytest.raises(ValueError, match="stage E1 lists router 0 twice"):
            StageMap(assignment)

    def test_unknown_stage_lookup(self):
        sm = contiguous_mapping(self.config)
        with pytest.raises(KeyError):
            sm.routers("V99")


class TestAnnealing:
    config = ReGraphXConfig()

    def test_result_valid(self):
        sm = anneal_mapping(self.config, iterations=50, seed=0)
        all_routers = [r for s in sm.stages for r in sm.routers(s)]
        assert len(set(all_routers)) == 192

    def test_zero_iterations_is_contiguous(self):
        sm = anneal_mapping(self.config, iterations=0)
        assert sm.assignment == contiguous_mapping(self.config).assignment

    def test_deterministic(self):
        a = anneal_mapping(self.config, iterations=80, seed=5)
        b = anneal_mapping(self.config, iterations=80, seed=5)
        assert a.assignment == b.assignment

    def test_improves_on_random_start_cost(self):
        """SA's proxy cost should not exceed the contiguous baseline."""
        from oracles.anneal_full import _mapping_cost

        legs = communication_legs(4)
        topo = self.config.topology
        coords = np.asarray(
            [topo.coords(r) for r in range(topo.num_routers)], dtype=float
        )
        base = _mapping_cost(
            contiguous_mapping(self.config).assignment, legs, {}, coords
        )
        annealed = anneal_mapping(self.config, iterations=300, seed=0)
        cost = _mapping_cost(annealed.assignment, legs, {}, coords)
        assert cost <= base + 1e-9

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            anneal_mapping(self.config, iterations=-1)
