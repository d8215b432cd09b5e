"""Unit tests for GNN traffic extraction and the pipeline model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import traffic_loops as oracle
from repro.core import traffic
from repro.core.config import ReGraphXConfig
from repro.core.mapping import contiguous_mapping, random_mapping, stage_names
from repro.core.pipeline import PipelineModel, PipelineTiming, StageCost
from repro.core.traffic import GNNTrafficModel, _grid_shape
from repro.graph.generators import powerlaw_community_graph
from repro.reram.sparse_mapping import block_tile_adjacency


def _message_tuples(msgs):
    return [(m.src, m.dests, m.size_bits, m.tag, m.msg_id) for m in msgs]


@pytest.fixture(scope="module")
def traffic_model(accelerator, ppi_workload):
    sm = contiguous_mapping(accelerator.config)
    return GNNTrafficModel(
        accelerator.config,
        sm,
        ppi_workload.block_mapping,
        ppi_workload.num_nodes_per_input,
        ppi_workload.layer_dims,
    )


class TestGridShape:
    def test_square(self):
        assert _grid_shape(16) == (4, 4)

    def test_rect(self):
        assert _grid_shape(8) == (2, 4)

    def test_prime(self):
        assert _grid_shape(7) == (1, 7)


class TestTrafficModel:
    def test_messages_valid(self, traffic_model):
        msgs = traffic_model.messages().to_messages()
        assert len(msgs) > 100
        ids = [m.msg_id for m in msgs]
        assert len(set(ids)) == len(ids)

    def test_sources_and_dests_live_on_assigned_stages(
        self, traffic_model, accelerator
    ):
        sm = traffic_model.stage_map
        stage_routers = {s: set(sm.routers(s)) for s in sm.stages}
        for msg in traffic_model.messages().to_messages():
            src_stage, dst_stage = msg.tag.split("->")
            assert msg.src in stage_routers[src_stage], msg.tag
            if src_stage != dst_stage and not dst_stage.startswith("V"):
                # Pure E-type destination legs (masks, gradients, reductions).
                allowed = stage_routers[dst_stage]
                assert set(msg.dests) <= allowed, msg.tag

    def test_v_to_e_volume_conservation(self, traffic_model, ppi_workload):
        """Every updated feature row is shipped exactly once: the V1->E1 leg
        carries n x dout x 16 bits in total."""
        msgs = [
            m for m in traffic_model.messages().to_messages() if m.tag == "V1->E1"
        ]
        total = sum(m.size_bits for m in msgs)
        n = ppi_workload.num_nodes_per_input
        dout = ppi_workload.layer_dims[0][1]
        # Rows whose block-column group is empty are never shipped.
        covered_rows = sum(
            min((int(g) + 1) * 8, n) - int(g) * 8
            for g in traffic_model._index.occupied_cols
        )
        assert total == covered_rows * dout * 16

    def test_all_expected_legs_present(self, traffic_model, accelerator):
        tags = {m.tag for m in traffic_model.messages().to_messages()}
        L = accelerator.config.num_layers
        for i in range(1, L + 1):
            assert f"V{i}->E{i}" in tags
            assert f"E{i}->E{i}" in tags  # partial-sum reduction
            assert f"E{i}->BE{i}" in tags
            assert f"BE{i}->BV{i}" in tags
            if i < L:
                assert f"E{i}->V{i + 1}" in tags
            if i > 1:
                assert f"BV{i}->BE{i - 1}" in tags

    def test_multicast_degree_bounded_by_grid(self, traffic_model):
        """Input-distribution legs multicast to at most grid-column size."""
        a, _ = _grid_shape(16)
        for msg in traffic_model.messages().to_messages():
            if msg.tag.startswith("V") and "->E" in msg.tag:
                assert len(msg.dests) <= a

    def test_leg_volumes_positive(self, traffic_model):
        for leg, volume in traffic_model.leg_volumes().items():
            assert volume > 0, leg

    def test_multicast_degree_diagnostic(self, traffic_model):
        degree = traffic_model.multicast_degree()
        assert 1.0 <= degree <= 16.0

    def test_deterministic(self, traffic_model, accelerator, ppi_workload):
        again = GNNTrafficModel(
            accelerator.config,
            traffic_model.stage_map,
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
        )
        assert _message_tuples(traffic_model.messages().to_messages()) == (
            _message_tuples(again.messages().to_messages())
        )

    def test_validation(self, accelerator, ppi_workload):
        sm = contiguous_mapping(accelerator.config)
        with pytest.raises(ValueError, match="layer dims"):
            GNNTrafficModel(
                accelerator.config, sm, ppi_workload.block_mapping, 10, [(4, 4)]
            )
        with pytest.raises(ValueError, match="node"):
            GNNTrafficModel(
                accelerator.config,
                sm,
                ppi_workload.block_mapping,
                0,
                ppi_workload.layer_dims,
            )


class TestVectorizedEngine:
    """Numpy group-by extraction vs the scalar loops in
    ``tests/oracles/traffic_loops.py``: bit-identical."""

    def test_matches_loop_engine(self, traffic_model):
        vectorized = traffic_model.messages().to_messages()
        loop = oracle.messages(traffic_model)
        assert _message_tuples(vectorized) == _message_tuples(loop)

    def test_matches_on_inference(self, accelerator, ppi_workload):
        model = GNNTrafficModel(
            accelerator.config,
            contiguous_mapping(accelerator.config, training=False),
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
            training=False,
        )
        assert _message_tuples(model.messages().to_messages()) == _message_tuples(
            oracle.messages(model)
        )

    def test_matches_on_scattered_mapping(self, accelerator, ppi_workload):
        """A random placement exercises every grid/chunk corner case."""
        model = GNNTrafficModel(
            accelerator.config,
            random_mapping(accelerator.config, seed=13),
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
        )
        assert _message_tuples(model.messages().to_messages()) == _message_tuples(
            oracle.messages(model)
        )

    def test_matches_on_alternate_mesh(self, ppi_workload):
        """Different mesh geometry changes grids, chunk bounds, homes."""
        config = ReGraphXConfig(mesh_width=6, mesh_height=6, tiers=3)
        model = GNNTrafficModel(
            config,
            contiguous_mapping(config),
            ppi_workload.block_mapping,
            ppi_workload.num_nodes_per_input,
            ppi_workload.layer_dims,
        )
        assert _message_tuples(model.messages().to_messages()) == _message_tuples(
            oracle.messages(model)
        )

    @given(
        width=st.integers(3, 6),
        height=st.integers(2, 5),
        tiers=st.integers(2, 4),
        v_tier=st.integers(0, 3),
        num_layers=st.integers(1, 3),
        training=st.booleans(),
        mapping_seed=st.none() | st.integers(0, 2**16),
        num_nodes=st.integers(16, 120),
        degree=st.integers(1, 6),
        graph_seed=st.integers(0, 2**16),
        dims=st.lists(st.integers(1, 64), min_size=4, max_size=4),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matches_on_generated_inputs(
        self, width, height, tiers, v_tier, num_layers, training,
        mapping_seed, num_nodes, degree, graph_seed, dims,
    ):
        """Generated knob combinations: mesh shape (non-square, 2-4 tiers),
        layers, training/inference, contiguous or random mapping,
        and small generated graphs (``mapping_seed=None`` is contiguous)."""
        config = ReGraphXConfig(
            mesh_width=width, mesh_height=height, tiers=tiers,
            v_tier=v_tier % tiers, num_layers=num_layers,
        )
        graph = powerlaw_community_graph(
            num_nodes=num_nodes, num_edges=num_nodes * degree,
            num_communities=max(1, num_nodes // 16), seed=graph_seed,
        )
        stage_map = (
            contiguous_mapping(config, training)
            if mapping_seed is None
            else random_mapping(config, seed=mapping_seed, training=training)
        )
        model = GNNTrafficModel(
            config,
            stage_map,
            block_tile_adjacency(graph, config.e_tile.crossbar_size),
            graph.num_nodes,
            list(zip(dims[:num_layers], dims[1:num_layers + 1])),
            training=training,
        )
        assert _message_tuples(model.messages().to_messages()) == _message_tuples(
            oracle.messages(model)
        )


#: The ``nocscale`` campaign's meshes, width x width x tiers.  Their E
#: stages hold 4 to 54 routers: square grids (2x2, 3x3, 4x4, 5x5, 6x6),
#: non-square ones (2x4, 3x4, 4x6, 3x6, 6x9) and the prime 13 and 37,
#: whose grid is one row.
NOCSCALE_MESHES = [(w, t) for w in (6, 8, 10, 12) for t in (2, 3, 4)]


@pytest.fixture(scope="module")
def nocscale_workload(accelerator):
    """The graph every ``nocscale`` scenario evaluates: ppi@0.05, seed 0."""
    return accelerator.build_workload("ppi", scale=0.05, seed=0)


def _nocscale_model(workload, width, tiers):
    config = ReGraphXConfig(mesh_width=width, mesh_height=width, tiers=tiers)
    return GNNTrafficModel(
        config,
        contiguous_mapping(config),
        workload.block_mapping,
        workload.num_nodes_per_input,
        workload.layer_dims,
    )


class TestNocscaleMeshes:
    """The presence-table extraction on the meshes ``nocscale`` sweeps."""

    def test_stage_grids_cover_prime_and_non_square(self):
        grids = {
            _grid_shape(ReGraphXConfig(mesh_width=w, mesh_height=w, tiers=t)
                        .stage_routers()[1])
            for w, t in NOCSCALE_MESHES
        }
        assert {(1, 13), (1, 37)} <= grids  # prime stage sizes
        assert {(2, 4), (6, 9)} <= grids  # non-square grids

    @pytest.mark.parametrize("width,tiers", NOCSCALE_MESHES)
    def test_matches_loop_engine(self, nocscale_workload, width, tiers):
        model = _nocscale_model(nocscale_workload, width, tiers)
        assert _message_tuples(model.messages().to_messages()) == _message_tuples(
            oracle.messages(model)
        )

    def test_one_presence_table_per_axis_and_modulus(
        self, nocscale_workload, monkeypatch
    ):
        """Legs share their (axis, modulus) table within one call, and a
        second call builds its own: the tables are not kept."""
        built = []
        real = traffic._residue_cells

        def spy(index, axis, modulus):
            built.append((axis, modulus))
            return real(index, axis, modulus)

        monkeypatch.setattr(traffic, "_residue_cells", spy)
        model = _nocscale_model(nocscale_workload, 12, 4)  # grid 6x9
        model.messages()
        first = list(built)
        assert sorted(first) == sorted(set(first))
        # Forward reads use (col, a) and (row, b); backward (row, a), (col, b).
        assert set(first) == {("col", 6), ("row", 9), ("row", 6), ("col", 9)}
        model.messages()
        assert built == first + first


class TestPipelineModel:
    def test_stage_order(self):
        model = PipelineModel(4)
        assert model.stage_order == stage_names(4)

    def test_period_is_max_bound(self):
        model = PipelineModel(1)
        timing = model.timing(
            compute={"V1": 1.0, "E1": 3.0},
            communication={"V1": 2.0, "BE1": 2.5},
            num_inputs=10,
        )
        assert timing.period == 3.0
        assert timing.bottleneck.name == "E1"

    def test_epoch_formula(self):
        model = PipelineModel(1)  # 4 stages
        timing = model.timing({"V1": 2.0}, {}, num_inputs=10)
        assert timing.epoch_seconds == pytest.approx(2.0 * (10 + 3))

    def test_worst_compute_and_comm(self):
        model = PipelineModel(1)
        timing = model.timing(
            {"V1": 1.0, "E1": 5.0}, {"BV1": 7.0}, num_inputs=2
        )
        assert timing.worst_compute == 5.0
        assert timing.worst_communication == 7.0

    def test_utilization(self):
        model = PipelineModel(1)
        timing = model.timing({"V1": 1.0}, {}, num_inputs=4)
        # 4 inputs x 4 stages useful over (4+3) x 4 slots.
        assert timing.steady_state_utilization == pytest.approx(16 / 28)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineModel(1).timing({"V9": 1.0}, {}, 1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            StageCost("V1", -1.0, 0.0)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PipelineTiming(stages=(), num_inputs=1)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            PipelineModel(1).timing({}, {}, 0)
