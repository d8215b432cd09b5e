"""Properties the static schedule must hold on generated GNN traffic.

The golden digests pin the schedule bit for bit on two meshes; these
tests pin what must hold whatever the numbering or the instance.  Each
example draws a mesh (width, height, tiers, V tier), a layer count,
training or inference and a tiny generated graph, builds the traffic
model's message table and schedules it in both modes, with and without
multicast.  The checks:

* per-link flits equal the sum, over packets, of the packet's links
  times its flits, with every route rebuilt one at a time by
  ``tests/oracles/link_route.py``;
* the makespan is at least the heaviest link's load;
* a message finishes no earlier than its injection plus its longest
  route in links times ``hop_cycles`` plus its flits minus one;
* the pipelined schedule finishes every message no later than the
  atomic one;
* multicast trees never cost more flit-hops than unicast copies;
* no tag finishes after the makespan.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.link_route import link_route
from repro.core.config import ReGraphXConfig
from repro.core.mapping import contiguous_mapping
from repro.core.traffic import GNNTrafficModel
from repro.graph.generators import powerlaw_community_graph
from repro.noc.routing import route_plan
from repro.noc.schedule import StaticScheduler
from repro.noc.topology import EJECT, INJECT, PORTS
from repro.reram.sparse_mapping import block_tile_adjacency

ORDERS = ["".join(p) for p in permutations("xyz")]
MODES = [(mode, mc) for mode in ("pipelined", "atomic") for mc in (True, False)]

knobs = st.tuples(
    st.integers(2, 4),  # mesh width
    st.integers(2, 4),  # mesh height
    st.integers(2, 3),  # tiers
    st.integers(0, 2),  # V tier (mod tiers)
    st.integers(1, 2),  # layers
    st.booleans(),  # training
    st.sampled_from(ORDERS),
    st.integers(16, 64),  # graph nodes
    st.integers(0, 2**16),  # graph seed
)
EXAMPLES = settings(max_examples=30, derandomize=True, deadline=None)


@lru_cache(maxsize=None)
def _schedules(width, height, tiers, v_tier, layers, training, order, nodes, seed):
    """The traffic table, its scheduler config and its four schedules."""
    config = ReGraphXConfig(
        mesh_width=width, mesh_height=height, tiers=tiers,
        v_tier=v_tier % tiers, num_layers=layers,
    )
    graph = powerlaw_community_graph(
        num_nodes=nodes, num_edges=3 * nodes,
        num_communities=max(1, nodes // 16), seed=seed,
    )
    dims = [16, 8, 4][:layers + 1]
    table = GNNTrafficModel(
        config,
        contiguous_mapping(config, training),
        block_tile_adjacency(graph, config.e_tile.crossbar_size),
        graph.num_nodes,
        list(zip(dims, dims[1:])),
        training=training,
    ).messages()
    noc = replace(config.noc, routing_order=order)
    results = {}
    for mode, multicast in MODES:
        scheduler = StaticScheduler(config.topology, replace(noc, schedule_mode=mode))
        results[mode, multicast] = scheduler.simulate(table, multicast=multicast)
    return config, noc, table.to_messages(), results


def _routes(config, noc, msg):
    """Each destination's link ids, local ports included, one at a time."""
    plan = route_plan(config.topology, noc.routing_order)
    inject = msg.src * PORTS + INJECT
    return [
        [inject, *link_route(plan, msg.src, dst), dst * PORTS + EJECT]
        for dst in msg.dests
    ]


@given(knobs)
@EXAMPLES
def test_link_loads_are_tree_links_times_flits(params):
    config, noc, messages, results = _schedules(*params)
    assert noc.model_local_ports
    for multicast in (True, False):
        expected = [0] * (config.topology.num_routers * PORTS)
        for msg in messages:
            routes = _routes(config, noc, msg)
            packets = [set().union(*routes)] if multicast else [set(r) for r in routes]
            for links in packets:
                for lid in links:
                    expected[lid] += msg.num_flits(noc.flit_bits)
        for mode in ("pipelined", "atomic"):
            assert list(results[mode, multicast].link_loads) == expected


@given(knobs)
@EXAMPLES
def test_makespan_covers_the_bottleneck_link(params):
    *_, results = _schedules(*params)
    for result in results.values():
        assert result.makespan_cycles >= max(result.link_loads)


@given(knobs)
@EXAMPLES
def test_no_message_beats_its_uncontended_latency(params):
    config, noc, messages, results = _schedules(*params)
    for msg in messages:
        longest = max(len(route) for route in _routes(config, noc, msg))
        flits = msg.num_flits(noc.flit_bits)
        bound = msg.inject_cycle + longest * noc.hop_cycles + flits - 1
        for result in results.values():
            assert result.message_finish[msg.msg_id] >= bound


@given(knobs)
@EXAMPLES
def test_pipelined_never_finishes_after_atomic(params):
    *_, messages, results = _schedules(*params)
    for multicast in (True, False):
        pipelined = results["pipelined", multicast].message_finish
        atomic = results["atomic", multicast].message_finish
        assert all(pipelined[m.msg_id] <= atomic[m.msg_id] for m in messages)
        assert max(pipelined.values(), default=0) <= max(atomic.values(), default=0)


@given(knobs)
@EXAMPLES
def test_multicast_never_costs_more_flit_hops(params):
    *_, results = _schedules(*params)
    for mode in ("pipelined", "atomic"):
        tree, copies = results[mode, True], results[mode, False]
        assert tree.total_flit_hops <= copies.total_flit_hops


@given(knobs)
@EXAMPLES
def test_every_tag_finishes_within_the_makespan(params):
    *_, messages, results = _schedules(*params)
    for result in results.values():
        assert set(result.tag_finish) == {m.tag for m in messages}
        assert all(c <= result.makespan_cycles for c in result.tag_finish.values())
