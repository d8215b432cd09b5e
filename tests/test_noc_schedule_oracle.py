"""Differential test: the link-id scheduler against the tuple-keyed oracle.

``tests/oracles/schedule_tree.py`` keeps the scheduler that rebuilt a
dict-of-tuples multicast tree per message.  The library walks dense
link-id routes instead; on generated meshes (planar, single-column and
single-row ones included), every dimension order, both schedule modes,
with and without local ports and multicast, the two must agree on every
finish cycle, every link's flit count (ids mapped to the oracle's tuples
through ``oracles.link_tuples.link_of``) and the energy bit for bit.
"""

from __future__ import annotations

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schedule_tree as oracle
from oracles.link_tuples import tuple_loads
from repro.noc.packet import Message
from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.topology import Mesh2D, Mesh3D

ORDERS = ["".join(p) for p in permutations("xyz")]


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
        model_local_ports=draw(st.booleans()),
        schedule_mode=draw(st.sampled_from(["pipelined", "atomic"])),
        routing_order=draw(st.sampled_from(ORDERS)),
    )
    return topo, config, draw(message_sets(topo)), draw(st.booleans())


@given(scenario=scenarios())
@settings(max_examples=300, deadline=None)
def test_scheduler_matches_oracle(scenario):
    topo, config, messages, multicast = scenario
    got = StaticScheduler(topo, config).simulate(messages, multicast=multicast)
    want = oracle.StaticScheduler(topo, config).simulate(messages, multicast=multicast)
    assert got.makespan_cycles == want.makespan_cycles
    assert list(got.message_finish.items()) == list(want.message_finish.items())
    assert list(got.tag_finish.items()) == list(want.tag_finish.items())
    assert tuple_loads(topo, got.link_loads) == want.link_stats.flits
    assert got.energy_joules() == want.energy_joules()


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
    for mode in ("pipelined", "atomic"):
        for order in ORDERS:
            config = NoCConfig(schedule_mode=mode, routing_order=order)
            for multicast in (True, False):
                got = StaticScheduler(topo, config).simulate(messages, multicast)
                want = oracle.StaticScheduler(topo, config).simulate(
                    messages, multicast
                )
                assert got.message_finish == want.message_finish
                assert tuple_loads(topo, got.link_loads) == want.link_stats.flits
