"""Paper-model invariants of ``ReGraphX.evaluate`` over generated chips.

Feasible combinations of mesh width and height (4-12), tier count (2-4)
and GNN depth (1-4 layers) are evaluated on one small graph, training and
inference, multicast and unicast.  Every report must cost every stage of
its pipeline, last at least ``num_inputs`` periods of its slowest stage,
and carry no negative energy term; inference stages must get at least
twice the PE budget of training stages.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.mapping import contiguous_mapping, stage_names
from repro.graph.datasets import get_dataset_spec, load_dataset
from repro.graph.partition import partition_graph

SPEC = get_dataset_spec("ppi")
SCALE = 0.01


@lru_cache(maxsize=None)
def _graph():
    graph = load_dataset(SPEC.name, scale=SCALE, seed=0, with_features=False)
    _, _, num_parts = SPEC.scaled(SCALE)
    return graph, partition_graph(graph, num_parts, seed=0)


@lru_cache(maxsize=None)
def _workload(num_layers: int):
    graph, partition = _graph()
    spec = replace(SPEC, num_layers=num_layers)
    config = ReGraphXConfig(num_layers=num_layers)
    return ReGraphX(config).build_workload(
        spec, scale=SCALE, seed=0, graph=graph, partition=partition
    )


def _config(width, height, tiers, num_layers):
    try:
        return ReGraphXConfig(
            mesh_width=width,
            mesh_height=height,
            tiers=tiers,
            v_tier=tiers // 2,
            num_layers=num_layers,
        )
    except ValueError:
        return None  # too few routers for 2L stages per tier kind


@given(
    width=st.integers(4, 12),
    height=st.integers(4, 12),
    tiers=st.integers(2, 4),
    num_layers=st.integers(1, 4),
    training=st.booleans(),
    multicast=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_report_invariants(width, height, tiers, num_layers, training, multicast):
    config = _config(width, height, tiers, num_layers)
    assume(config is not None)
    report = ReGraphX(config).evaluate(
        _workload(num_layers),
        multicast=multicast,
        stage_map=contiguous_mapping(config, training),
        training=training,
    )

    names = stage_names(num_layers, training)
    assert sorted(report.compute_seconds) == sorted(names)
    assert all(report.compute_seconds[s] > 0 for s in names)
    assert [s.name for s in report.pipeline.stages] == names

    slowest = max(s.period_bound for s in report.pipeline.stages)
    assert report.epoch_seconds >= report.pipeline.num_inputs * slowest

    for term in (
        report.compute_energy_per_input,
        report.write_energy_per_input,
        report.noc_energy_per_input,
        report.static_epoch_energy,
        report.epoch_energy,
    ):
        assert term >= 0

    v_train, e_train = config.stage_budgets(training=True)
    v_infer, e_infer = config.stage_budgets(training=False)
    assert v_infer >= 2 * v_train >= 2
    assert e_infer >= 2 * e_train >= 2
