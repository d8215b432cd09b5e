"""Cross-module integration tests.

These exercise complete paths through the library: GCN math running on the
functional crossbar models, workload evaluation end-to-end, and agreement
between the two NoC performance models on workload-derived traffic.
"""

import numpy as np
import pytest

from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.evaluation import compare_with_gpu
from repro.core.mapping import contiguous_mapping
from repro.core.traffic import GNNTrafficModel, cross_validate_traffic
from repro.gnn.layers import GCNLayer
from repro.gnn.model import GCN
from repro.graph.clustering import ClusterBatcher
from repro.graph.datasets import load_dataset
from repro.graph.partition import partition_graph
from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.simulator import FlitSimulator
from repro.reram.ima import IMASpec
from repro.reram.tile import ReRAMTile, TileSpec, v_tile_spec


class TestGCNOnReRAM:
    """The V-layer math of a GCN runs bit-exactly on the crossbar model
    (up to 16-bit fixed-point quantization)."""

    def test_layer_forward_matches_crossbars(self):
        rng = np.random.default_rng(0)
        graph = load_dataset("ppi", scale=0.004, seed=0)
        n = 16
        x = graph.features[:n] * 0.05
        w = rng.normal(scale=0.2, size=(graph.feature_dim, 40))

        tile = ReRAMTile(v_tile_spec())
        tile.program_layer(w)
        v_out_analog = tile.matmul(x)

        a_hat = graph.normalized_adjacency()[:n, :n]
        layer = GCNLayer(weight=w, activation="relu")
        reference = layer.forward(a_hat, x)
        analog_full = np.maximum(np.asarray(a_hat @ v_out_analog), 0.0)
        assert np.abs(analog_full - reference).max() < 1e-2

    def test_small_crossbar_tile_runs_adjacency_blocks(self):
        """An 8x8 E-crossbar applies one binary adjacency block exactly."""
        from repro.reram.crossbar import Crossbar

        rng = np.random.default_rng(1)
        block = (rng.random((8, 8)) < 0.3).astype(np.int64)
        xb = Crossbar(8, 8)
        xb.program(block)
        wave = (rng.random(8) < 0.5).astype(np.int64)
        assert np.array_equal(xb.mac_wave(wave), wave @ block)


class TestEndToEndEvaluation:
    def test_full_flow_from_raw_graph(self):
        """graph -> partition -> workload -> evaluate -> compare, all from
        public API calls."""
        accelerator = ReGraphX()
        graph = load_dataset("reddit", scale=0.008, seed=1, with_features=False)
        partition = partition_graph(graph, 10, seed=1)
        workload = accelerator.build_workload(
            "reddit", seed=1, graph=graph, partition=partition
        )
        report = accelerator.evaluate(workload, multicast=True, use_sa=False)
        comparison = compare_with_gpu(report)
        assert comparison.speedup > 0
        assert report.pipeline.num_inputs == 150

    def test_training_and_hardware_agree_on_shapes(self, small_graph):
        """The GCN the trainer runs and the layer dims the hardware maps
        are the same shapes."""
        partition = partition_graph(small_graph, 4, seed=0)
        batcher = ClusterBatcher(small_graph, partition, 2, seed=0)
        model = GCN(
            small_graph.feature_dim, 32, small_graph.num_classes, num_layers=4, seed=0
        )
        batch = batcher.epoch()[0]
        logits = model.forward(
            batch.subgraph.normalized_adjacency(), batch.subgraph.features
        )
        assert logits.shape == (batch.subgraph.num_nodes, small_graph.num_classes)

    def test_custom_config_smaller_mesh(self):
        """The whole stack works on a non-default architecture."""
        config = ReGraphXConfig(mesh_width=4, mesh_height=4, num_layers=2)
        accelerator = ReGraphX(config)
        assert config.num_pipeline_stages == 8
        graph = load_dataset("ppi", scale=0.01, seed=0, with_features=False)
        partition = partition_graph(graph, 5, seed=0)
        from repro.graph.datasets import DatasetSpec

        spec = DatasetSpec(
            name="mini",
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            num_partitions=5,
            batch_size=1,
            num_inputs=5,
            feature_dim=50,
            num_classes=10,
            hidden_dim=64,
            num_layers=2,
        )
        workload = accelerator.build_workload(
            spec, seed=0, graph=graph, partition=partition
        )
        report = accelerator.evaluate(workload, use_sa=False)
        assert report.epoch_seconds > 0


class TestNoCModelAgreement:
    """The static scheduler and the flit simulator agree on workload traffic."""

    def test_workload_traffic_cross_validation(self, accelerator, ppi_workload):
        sm = contiguous_mapping(accelerator.config)
        traffic = GNNTrafficModel(
            accelerator.config,
            sm,
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
        )
        # Subsample one leg to keep the flit-level run fast.
        msgs = [m for m in traffic.messages() if m.tag == "E1->V2"][:40]
        assert msgs
        cfg = accelerator.config.noc
        sched = StaticScheduler(accelerator.config.topology, cfg)
        sim = FlitSimulator(accelerator.config.topology, cfg)
        res_sched = sched.simulate(msgs, multicast=False)
        res_sim = sim.simulate(msgs)
        # Same work delivered...
        assert res_sim.total_flit_hops == res_sched.total_flit_hops
        # ...and the two contention models agree within 2x.
        ratio = res_sched.makespan_cycles / res_sim.makespan_cycles
        assert 0.5 <= ratio <= 2.0

    def test_full_traffic_cross_validation_event_backend(
        self, accelerator, ppi_workload
    ):
        """The event engine makes the *entire* pipeline message set cheap to
        validate — no subsampling, unlike the cycle-era test above."""
        sm = contiguous_mapping(accelerator.config)
        traffic = GNNTrafficModel(
            accelerator.config,
            sm,
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
        )
        msgs = traffic.messages()
        validation = cross_validate_traffic(
            accelerator.config.topology, accelerator.config.noc, msgs
        )
        assert validation.num_messages == len(msgs)
        assert validation.flit_hops_match
        # The static schedule is conservative: never faster than the
        # flit-level dynamics, and within an order of magnitude of them.
        assert 1.0 <= validation.makespan_ratio < 10.0

    def test_atomic_bounds_pipelined_on_workload(self, accelerator, ppi_workload):
        sm = contiguous_mapping(accelerator.config)
        traffic = GNNTrafficModel(
            accelerator.config,
            sm,
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
        )
        msgs = traffic.messages()[:200]
        topo = accelerator.config.topology
        pipelined = StaticScheduler(topo, NoCConfig(schedule_mode="pipelined"))
        atomic = StaticScheduler(topo, NoCConfig(schedule_mode="atomic"))
        assert (
            pipelined.simulate(msgs).makespan_cycles
            <= atomic.simulate(msgs).makespan_cycles
        )


class TestScaleInvariance:
    """Per-input statistics are approximately scale-invariant — the property
    that lets reduced-scale experiments project full-scale results."""

    @pytest.mark.parametrize("scales", [(0.1, 0.2)])
    def test_per_input_nodes_stable(self, accelerator, scales):
        # Exact NumPart rounding at tiny scales adds variance, so compare
        # two scales where the partition count is a faithful fraction.
        sizes = []
        for scale in scales:
            wl = accelerator.build_workload("ppi", scale=scale, seed=0)
            sizes.append(wl.num_nodes_per_input)
        assert abs(sizes[0] - sizes[1]) / max(sizes) < 0.2

    def test_full_scale_inputs_independent_of_scale(self, accelerator):
        for scale in (0.05, 0.1):
            wl = accelerator.build_workload("ppi", scale=scale, seed=0)
            assert wl.full_scale_num_inputs == 50
