"""Differential test: the link-id scheduler against the tuple-keyed oracle.

``tests/oracles/schedule_tree.py`` keeps the scheduler that rebuilt a
dict-of-tuples multicast tree per message.  The library walks dense
link-id routes instead; on generated meshes (planar, single-column and
single-row ones included) and timings, with and without multicast, the
two must agree on every finish cycle, every link's flit count (ids
mapped to the oracle's tuples through ``oracles.link_tuples.link_of``)
and the energy bit for bit.  The oracle runs its defaults, the library's
one configuration: the pipelined schedule, X-Y-Z routes and tile ports.

The library builds its trees in blocks of at most ``ROUTE_ENTRIES``
route entries, and the generated sets fit in one block at the shipped
budget.  The block-edge tests patch the budget down (to 1, so every
message is a block, and to values that cut between two messages of one
source) and require the same schedule as the unpatched run and the
oracle.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schedule_tree as oracle
from oracles.link_tuples import tuple_loads
from repro.noc import schedule
from repro.noc.packet import Message, MessageTable
from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.topology import Mesh2D, Mesh3D


@st.composite
def meshes(draw) -> Mesh3D:
    if draw(st.booleans()):
        width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        tiers = draw(st.integers(1, 4))
    else:
        width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        tiers = 1
    if width * height * tiers < 2:
        width += 1
    return Mesh2D(width, height) if tiers == 1 else Mesh3D(width, height, tiers)


@st.composite
def message_sets(draw, topo: Mesh3D) -> list[Message]:
    n = topo.num_routers
    count = draw(st.integers(0, 14))
    ids = draw(st.permutations(range(count)))
    messages = []
    for msg_id in ids:
        src = draw(st.integers(0, n - 1))
        others = [r for r in range(n) if r != src]
        dests = draw(
            st.lists(st.sampled_from(others), min_size=1, max_size=6, unique=True)
        )
        messages.append(
            Message(
                src=src,
                dests=tuple(dests),
                size_bits=draw(st.integers(1, 160)),
                inject_cycle=draw(st.integers(0, 40)),
                tag=draw(st.sampled_from(["", "fwd", "bwd"])),
                msg_id=msg_id,
            )
        )
    return messages


@st.composite
def scenarios(draw):
    topo = draw(meshes())
    config = NoCConfig(
        flit_bits=draw(st.sampled_from([8, 32])),
        router_cycles=draw(st.integers(1, 3)),
        link_cycles=draw(st.integers(1, 2)),
    )
    return topo, config, draw(message_sets(topo)), draw(st.booleans())


def assert_matches_oracle(topo, got, want):
    assert got.makespan_cycles == want.makespan_cycles
    assert list(got.message_finish.items()) == list(want.message_finish.items())
    assert list(got.tag_finish.items()) == list(want.tag_finish.items())
    assert tuple_loads(topo, got.link_loads) == want.link_stats.flits
    assert got.energy_joules() == want.energy_joules()


def assert_same_schedule(got, want):
    assert got.makespan_cycles == want.makespan_cycles
    assert list(got.message_finish.items()) == list(want.message_finish.items())
    assert list(got.tag_finish.items()) == list(want.tag_finish.items())
    assert got.link_loads == want.link_loads


@given(scenario=scenarios())
@settings(max_examples=300, deadline=None)
def test_scheduler_matches_oracle(scenario):
    topo, config, messages, multicast = scenario
    table = MessageTable.from_messages(messages)
    got = StaticScheduler(topo, config).simulate(table, multicast=multicast)
    want = oracle.StaticScheduler(topo, config).simulate(messages, multicast=multicast)
    assert_matches_oracle(topo, got, want)


@given(scenario=scenarios(), budget=st.integers(1, 48))
@settings(max_examples=200, deadline=None)
def test_block_edges_keep_the_schedule(scenario, budget):
    """Budgets from 1 (a block per message) up cut the generated sets at
    every kind of edge; the schedule must not move."""
    topo, config, messages, multicast = scenario
    scheduler = StaticScheduler(topo, config)
    table = MessageTable.from_messages(messages)
    whole = scheduler.simulate(table, multicast=multicast)
    with patch.object(schedule, "ROUTE_ENTRIES", budget):
        split = scheduler.simulate(table, multicast=multicast)
    want = oracle.StaticScheduler(topo, config).simulate(messages, multicast=multicast)
    assert_same_schedule(split, whole)
    assert_matches_oracle(topo, split, want)


def _route_entries(topo: Mesh3D, message: Message) -> int:
    """Links on the message's routes, tile ports included."""
    return sum(
        len(oracle.dimension_order_route(topo, message.src, dst)) + 1
        for dst in message.dests
    )


@pytest.mark.parametrize("multicast", [True, False])
@pytest.mark.parametrize("cut", ["every-message", "mid-source"])
def test_block_edge_between_messages_of_one_source(cut, multicast):
    """Four messages per source, all injected at cycle 0, so the schedule
    order runs source by source.  The mid-source budget fits exactly the
    first two messages, so the first block edge splits source 0."""
    topo = Mesh3D(4, 4, 2)
    messages = [
        Message(
            src=src,
            dests=tuple(sorted({(src + 3 * k + 5) % 32 for k in range(j + 1)} - {src})),
            size_bits=48 + 32 * j,
            tag="fwd" if j % 2 else "bwd",
            msg_id=4 * src + j,
        )
        for src in range(0, 32, 3)
        for j in range(4)
    ]
    ordered = sorted(messages, key=lambda m: (m.inject_cycle, m.src, m.dests, m.msg_id))
    entries = [_route_entries(topo, message) for message in ordered]
    assert sum(entries) <= schedule.ROUTE_ENTRIES  # one block unpatched
    budget = 1
    if cut == "mid-source":
        budget = entries[0] + entries[1]
        assert ordered[1].src == ordered[2].src
    scheduler = StaticScheduler(topo)
    table = MessageTable.from_messages(messages)
    whole = scheduler.simulate(table, multicast)
    with patch.object(schedule, "ROUTE_ENTRIES", budget):
        split = scheduler.simulate(table, multicast)
    want = oracle.StaticScheduler(topo).simulate(messages, multicast)
    assert_same_schedule(split, whole)
    assert_matches_oracle(topo, split, want)


def test_paper_mesh_traffic_matches_oracle():
    """A dense multicast-heavy set on the paper's 8x8x3 mesh."""
    topo = Mesh3D(8, 8, 3)
    messages = []
    for i in range(120):
        src = (7 * i) % 192
        dests = {(src + 13 * k + 1) % 192 for k in range(1, 9)} - {src}
        messages.append(
            Message(
                src=src,
                dests=tuple(sorted(dests)),
                size_bits=64 + 32 * (i % 5),
                inject_cycle=i % 11,
                tag="fwd" if i % 2 else "bwd",
                msg_id=i,
            )
        )
    oracle_scheduler = oracle.StaticScheduler(topo)
    table = MessageTable.from_messages(messages)
    for multicast in (True, False):
        got = StaticScheduler(topo).simulate(table, multicast)
        want = oracle_scheduler.simulate(messages, multicast)
        assert got.message_finish == want.message_finish
        assert tuple_loads(topo, got.link_loads) == want.link_stats.flits
