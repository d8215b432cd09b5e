"""Tests for the ReGraphX façade, evaluation, and GPU comparison."""

import numpy as np
import pytest

from repro.baselines.gpu import GPUModel, GPUSpec
from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.evaluation import FullSystemComparison, compare_with_gpu
from repro.core.heterogeneity import epe_demand_for_beta, zero_storage_study
from repro.core.mapping import random_mapping


@pytest.fixture(scope="module")
def report(accelerator, ppi_workload):
    return accelerator.evaluate(ppi_workload, multicast=True, use_sa=False)


class TestWorkload:
    def test_build_defaults_to_paper_beta(self, ppi_workload):
        assert ppi_workload.batch_size == 5
        assert ppi_workload.spec.name == "ppi"

    def test_full_scale_num_inputs(self, ppi_workload):
        assert ppi_workload.full_scale_num_inputs == 50  # Table II

    def test_layer_dims_follow_spec(self, ppi_workload):
        spec = ppi_workload.spec
        dims = ppi_workload.layer_dims
        assert len(dims) == 4
        assert dims[0][0] == spec.feature_dim
        assert dims[-1][1] == spec.num_classes
        for (_, a), (b, _) in zip(dims[:-1], dims[1:]):
            assert a == b

    def test_rep_subgraph_matches_per_input_stats(self, ppi_workload):
        spec = ppi_workload.spec
        n = ppi_workload.num_nodes_per_input
        assert abs(n - spec.nodes_per_input) / spec.nodes_per_input < 0.25

    def test_block_mapping_uses_e_crossbar_size(self, ppi_workload, accelerator):
        assert (
            ppi_workload.block_mapping.block_size
            == accelerator.config.e_tile.crossbar_size
        )

    def test_custom_beta(self, accelerator, ppi_workload):
        wl = accelerator.build_workload(
            "ppi",
            scale=0.02,
            seed=0,
            batch_size=1,
            graph=ppi_workload.graph,
            partition=ppi_workload.partition,
        )
        assert wl.batch_size == 1
        assert wl.full_scale_num_inputs == 250
        assert wl.num_nodes_per_input < ppi_workload.num_nodes_per_input

    def test_rejects_bad_beta(self, accelerator):
        with pytest.raises(ValueError):
            accelerator.build_workload("ppi", scale=0.02, batch_size=0)


def _workload_digest(workload):
    """Hash of the graph and partition a sweep reuses across scenarios."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for array in (
        workload.graph.indptr,
        workload.graph.indices,
        workload.partition.assignment,
        workload.partition.part_sizes,
    ):
        h.update(array.tobytes())
    h.update(str(workload.partition.edge_cut).encode())
    return h.hexdigest()


class TestWorkloadNotMutated:
    """Campaign sweeps hand one graph and partition to many scenarios;
    that is only exact while building and evaluating leave them as built."""

    @pytest.fixture(scope="class")
    def workload(self, accelerator):
        return accelerator.build_workload("ppi", scale=0.02, seed=0)

    @pytest.mark.parametrize("use_sa", [False, True], ids=["contiguous", "sa"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_evaluate_leaves_workload_intact(
        self, accelerator, workload, use_sa, training
    ):
        before = _workload_digest(workload)
        rep = (workload.rep_subgraph.indptr.tobytes(),
               workload.rep_subgraph.indices.tobytes())
        accelerator.evaluate(workload, use_sa=use_sa, training=training)
        assert _workload_digest(workload) == before
        assert (workload.rep_subgraph.indptr.tobytes(),
                workload.rep_subgraph.indices.tobytes()) == rep

    def test_rebuild_from_shared_graph_leaves_it_intact(self, workload):
        before = _workload_digest(workload)
        other = ReGraphX(ReGraphXConfig(mesh_width=6, mesh_height=6))
        rebuilt = other.build_workload(
            "ppi", scale=0.02, seed=0,
            graph=workload.graph, partition=workload.partition,
        )
        other.evaluate(rebuilt, use_sa=True)
        assert _workload_digest(workload) == before


class TestEvaluate:
    def test_report_sanity(self, report):
        assert report.worst_compute > 0
        assert report.worst_communication > 0
        assert report.epoch_seconds > 0
        assert report.pipeline.num_inputs == 50
        assert report.multicast

    def test_energy_breakdown_positive(self, report):
        assert report.compute_energy_per_input > 0
        assert report.write_energy_per_input > 0
        assert report.noc_energy_per_input > 0
        assert report.energy_per_input == pytest.approx(
            report.compute_energy_per_input
            + report.write_energy_per_input
            + report.noc_energy_per_input
        )

    def test_epoch_energy_includes_static(self, report):
        dynamic = report.energy_per_input * report.pipeline.num_inputs
        assert report.epoch_energy == pytest.approx(
            dynamic + report.static_epoch_energy
        )
        assert report.static_epoch_energy > 0

    def test_every_stage_costed(self, report, accelerator):
        from repro.core.mapping import stage_names

        for stage in stage_names(accelerator.config.num_layers):
            assert stage in report.compute_seconds

    def test_unicast_never_faster(self, accelerator, ppi_workload, report):
        unicast = accelerator.evaluate(
            ppi_workload, multicast=False, stage_map=report.stage_map
        )
        assert unicast.worst_communication >= report.worst_communication

    def test_communication_dominates(self, report):
        """Paper Fig. 7: communication delay exceeds computation delay."""
        assert report.worst_communication > report.worst_compute

    def test_deterministic(self, accelerator, ppi_workload):
        a = accelerator.evaluate(ppi_workload, use_sa=False)
        b = accelerator.evaluate(ppi_workload, use_sa=False)
        assert a.epoch_seconds == b.epoch_seconds
        assert a.epoch_energy == b.epoch_energy

    def test_random_mapping_not_better_than_contiguous(
        self, accelerator, ppi_workload, report
    ):
        randomized = accelerator.evaluate(
            ppi_workload, stage_map=random_mapping(accelerator.config, seed=2)
        )
        assert randomized.worst_communication >= 0.9 * report.worst_communication


class TestHeterogeneity:
    def test_zero_storage_ratio_exceeds_one(self, ppi_workload):
        result = zero_storage_study(ppi_workload.graph)
        assert result.ratio > 1.0

    def test_zero_storage_validation(self, ppi_workload):
        with pytest.raises(ValueError):
            zero_storage_study(ppi_workload.graph, 128, 8)

    def test_epe_demand_monotone_in_beta(self, ppi_workload):
        demands = [
            epe_demand_for_beta(
                ppi_workload.graph, ppi_workload.partition, beta, seed=0
            )
            for beta in (1, 2, 5)
        ]
        blocks = [d.block_mapping.nnz_blocks for d in demands]
        assert blocks[0] < blocks[1] < blocks[2]
        tiles = [d.tiles_needed for d in demands]
        assert tiles[0] <= tiles[1] <= tiles[2]

    def test_epe_demand_fields(self, ppi_workload):
        demand = epe_demand_for_beta(ppi_workload.graph, ppi_workload.partition, 5)
        assert demand.num_inputs == ppi_workload.partition.num_parts // 5
        assert demand.subgraph_nodes > 0


class TestGPUBaseline:
    model = GPUModel()

    def test_step_cost_components(self):
        cost = self.model.step_cost(1000, 20000, [(602, 512), (512, 41)])
        assert cost.compute_seconds > 0
        assert cost.memory_seconds > 0
        assert cost.overhead_seconds == GPUSpec().step_overhead
        assert cost.total_seconds >= cost.overhead_seconds

    def test_epoch_linear_in_inputs(self):
        t1 = self.model.epoch_time(10, 1000, 5000, [(16, 8)])
        t2 = self.model.epoch_time(20, 1000, 5000, [(16, 8)])
        assert t2 == pytest.approx(2 * t1)

    def test_energy_is_power_times_time(self):
        assert self.model.epoch_energy(2.0) == pytest.approx(2.0 * 250.0)

    def test_compute_scales_with_dims(self):
        small = self.model.step_cost(1000, 5000, [(64, 64)])
        big = self.model.step_cost(1000, 5000, [(512, 512)])
        assert big.compute_seconds > small.compute_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            self.model.step_cost(0, 10, [(4, 4)])
        with pytest.raises(ValueError):
            self.model.step_cost(10, -1, [(4, 4)])
        with pytest.raises(ValueError):
            self.model.step_cost(10, 10, [])
        with pytest.raises(ValueError):
            self.model.epoch_time(0, 10, 10, [(4, 4)])
        with pytest.raises(ValueError):
            self.model.epoch_energy(-1.0)
        with pytest.raises(ValueError):
            GPUSpec(dense_efficiency=0.0)
        with pytest.raises(ValueError):
            GPUSpec(average_power=0.0)


class TestComparison:
    def test_fields_and_identities(self, report):
        cmp = compare_with_gpu(report)
        assert cmp.dataset == "ppi"
        assert cmp.speedup == pytest.approx(
            cmp.gpu_epoch_seconds / cmp.regraphx_epoch_seconds
        )
        assert cmp.edp_improvement == pytest.approx(cmp.speedup * cmp.energy_ratio)

    def test_regraphx_wins(self, report):
        """Paper Fig. 8 headline: ReGraphX beats the GPU on every axis."""
        cmp = compare_with_gpu(report)
        assert cmp.speedup > 1.5
        assert cmp.energy_ratio > 3.0
        assert cmp.edp_improvement > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FullSystemComparison("x", 0.0, 1.0, 1.0, 1.0)


class TestBaselinesPlanar:
    def test_flatten_preserves_router_count(self):
        from repro.baselines.planar import planar_mesh_for, planar_router_map
        from repro.noc.topology import Mesh3D

        topo = Mesh3D(8, 8, 3)
        flat = planar_mesh_for(topo)
        assert flat.tiers == 1
        assert flat.num_routers == topo.num_routers
        mapping = planar_router_map(topo)
        assert len(set(mapping.values())) == topo.num_routers

    def test_flatten_is_identity_for_2d(self):
        from repro.baselines.planar import planar_mesh_for
        from repro.noc.topology import Mesh2D

        flat = Mesh2D(4, 4)
        assert planar_mesh_for(flat) is flat

    def test_vertical_neighbors_become_distant(self):
        from repro.baselines.planar import planar_mesh_for, planar_router_map
        from repro.noc.topology import Mesh3D

        topo = Mesh3D(8, 8, 3)
        flat = planar_mesh_for(topo)
        mapping = planar_router_map(topo)
        a = topo.router_id(0, 0, 0)
        b = topo.router_id(0, 0, 1)
        assert topo.distance(a, b) == 1
        assert flat.distance(mapping[a], mapping[b]) == 8


class TestInferenceMode:
    """Forward-only deployment of the same chip (2L stages)."""

    @pytest.fixture(scope="class")
    def pair(self, accelerator, ppi_workload):
        train = accelerator.evaluate(ppi_workload, use_sa=False)
        infer = accelerator.evaluate(ppi_workload, use_sa=False, training=False)
        return train, infer

    def test_half_the_stages(self, pair, accelerator):
        train, infer = pair
        assert train.pipeline.num_stages == 4 * accelerator.config.num_layers
        assert infer.pipeline.num_stages == 2 * accelerator.config.num_layers

    def test_only_forward_stages_costed(self, pair):
        _, infer = pair
        assert not any(s.startswith("B") for s in infer.compute_seconds)
        assert not any(s.startswith("B") for s in infer.communication_seconds)

    def test_no_backward_traffic(self, pair):
        _, infer = pair
        tags = {t for t in infer.schedule.tag_finish}
        assert not any("B" in t for t in tags)

    def test_inference_cheaper_per_input(self, pair):
        train, infer = pair
        assert infer.energy_per_input < train.energy_per_input
        assert infer.compute_energy_per_input < train.compute_energy_per_input

    def test_inference_not_slower(self, pair):
        train, infer = pair
        assert infer.pipeline.period <= train.pipeline.period
        assert infer.epoch_seconds <= train.epoch_seconds

    def test_stage_budget_doubles(self, accelerator):
        v_train, e_train = accelerator.config.stage_budgets(training=True)
        v_infer, e_infer = accelerator.config.stage_budgets(training=False)
        assert v_infer == 2 * v_train
        assert e_infer == 2 * e_train


class TestInferenceMapping:
    def test_contiguous_inference_mapping_complete(self, accelerator):
        from repro.core.mapping import contiguous_mapping, stage_names

        sm = contiguous_mapping(accelerator.config, training=False)
        assert set(sm.stages) == set(stage_names(4, training=False))
        routers = [r for s in sm.stages for r in sm.routers(s)]
        assert len(set(routers)) == 192

    def test_stage_names_inference(self):
        from repro.core.mapping import stage_names

        assert stage_names(2, training=False) == ["V1", "E1", "V2", "E2"]

    def test_legs_inference(self):
        from repro.core.mapping import communication_legs

        legs = communication_legs(2, training=False)
        assert legs == [("V1", "E1"), ("E1", "V2"), ("V2", "E2")]
