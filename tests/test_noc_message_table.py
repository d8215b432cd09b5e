"""Contract of :class:`repro.noc.packet.MessageTable`.

The table is the only message form both NoC models accept.  It must
reject exactly what :class:`Message` rejects, with the same messages,
and name the column of a malformed table (unequal lengths, a
``dest_ptr`` that does not span ``dests``, tag codes outside ``tags``);
round-trip through :class:`Message` lists; schedule a hand-written list
as the list-based oracle does, caller ids included; give both models
results that do not depend on row order; and carry the traffic model's
canonical numbering (ids rank ``(src, dests, tag)``).  The synthetic
generators' rows are pinned by digest, so their RNG draw order cannot
drift.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import schedule_tree as oracle
from oracles.link_tuples import tuple_loads
from repro.core.mapping import contiguous_mapping, random_mapping
from repro.core.traffic import GNNTrafficModel
from repro.noc.packet import Message, MessageTable
from repro.noc.schedule import StaticScheduler
from repro.noc.simulator import FlitSimulator
from repro.noc.topology import Mesh3D
from repro.noc.traffic_gen import (
    hotspot_traffic,
    many_to_one_to_many_traffic,
    uniform_random_traffic,
)

TOPO = Mesh3D(4, 3, 2)


def _table(rows: list[tuple[int, tuple[int, ...], int, int]]) -> MessageTable:
    """A table from ``(src, dests, size_bits, inject_cycle)`` rows."""
    return MessageTable(
        src=[r[0] for r in rows],
        dest_ptr=np.cumsum([0, *(len(r[1]) for r in rows)]),
        dests=[d for r in rows for d in r[1]],
        bits=[r[2] for r in rows],
        inject=[r[3] for r in rows],
        tag=[0] * len(rows),
        tags=("",),
        msg_id=range(len(rows)),
    )


@pytest.mark.parametrize(
    "row",
    [
        (0, (), 8, 0),  # no destination
        (0, (3, 5, 3), 8, 0),  # duplicate destination
        (2, (1, 2), 8, 0),  # destination equals source
        (0, (1,), 0, 0),  # empty payload
        (0, (1,), -7, 0),  # negative payload
        (0, (1,), 8, -1),  # injection before cycle 0
    ],
)
def test_rejects_what_message_rejects(row):
    with pytest.raises(ValueError) as message:
        Message(src=row[0], dests=row[1], size_bits=row[2], inject_cycle=row[3])
    valid = (1, (0, 4), 16, 2)
    with pytest.raises(ValueError) as table:
        _table([valid, row, valid])
    assert str(table.value) == str(message.value)


def test_rejects_duplicate_message_ids():
    """Results report finish cycles by id: two messages left at the
    default id -1 would share one entry and lose a finish cycle."""
    messages = [Message(0, (5,), 320), Message(1, (9,), 3200)]
    with pytest.raises(ValueError, match="duplicate message id -1"):
        MessageTable.from_messages(messages)
    with pytest.raises(ValueError, match="duplicate message id 3"):
        MessageTable.from_messages(
            [Message(0, (5,), 32, msg_id=3), Message(1, (9,), 32, msg_id=3)]
        )


def _columns(**changes) -> dict:
    """Three valid rows as table columns, with ``changes`` applied."""
    columns = dict(
        src=[0, 1, 2],
        dest_ptr=[0, 1, 3, 4],
        dests=[5, 0, 4, 9],
        bits=[32, 64, 16],
        inject=[0, 3, 1],
        tag=[0, 1, 0],
        tags=("a", "b"),
        msg_id=[7, 8, 9],
    )
    columns.update(changes)
    return columns


def test_valid_columns_build():
    assert len(MessageTable(**_columns())) == 3


@pytest.mark.parametrize("column", ["src", "bits", "inject", "tag", "msg_id"])
def test_rejects_a_short_column(column):
    """A column one row short would index past its end inside a model.
    ``src`` sets the message count, so a short ``src`` shows as the first
    column that disagrees with it."""
    short = _columns()[column][:-1]
    match = "2 messages in src" if column == "src" else f"column {column} has shape"
    with pytest.raises(ValueError, match=match):
        MessageTable(**_columns(**{column: short}))


@pytest.mark.parametrize(
    "dest_ptr", [[0, 1, 3], [0, 1, 3, 4, 4], [[0, 1], [3, 4]]]
)
def test_rejects_a_dest_ptr_of_the_wrong_shape(dest_ptr):
    with pytest.raises(ValueError, match="column dest_ptr has shape"):
        MessageTable(**_columns(dest_ptr=dest_ptr))


@pytest.mark.parametrize("dest_ptr", [[1, 2, 3, 4], [0, 1, 2, 3], [0, 1, 3, 5]])
def test_rejects_a_dest_ptr_that_does_not_span_dests(dest_ptr):
    with pytest.raises(ValueError, match="dest_ptr must run from 0 to len"):
        MessageTable(**_columns(dest_ptr=dest_ptr))


@pytest.mark.parametrize("code", [-1, 2])
def test_rejects_tag_codes_outside_tags(code):
    """Code -1 would index ``tags`` from the end and report its message
    under the last tag."""
    with pytest.raises(ValueError, match=f"tag code {code} is outside"):
        MessageTable(**_columns(tag=[0, code, 0]))


@st.composite
def message_lists(draw) -> list[Message]:
    n = TOPO.num_routers
    messages = []
    for msg_id in draw(st.lists(st.integers(-1, 50), max_size=12, unique=True)):
        src = draw(st.integers(0, n - 1))
        others = [r for r in range(n) if r != src]
        messages.append(
            Message(
                src=src,
                dests=tuple(draw(st.lists(
                    st.sampled_from(others), min_size=1, max_size=5, unique=True
                ))),
                size_bits=draw(st.integers(1, 200)),
                inject_cycle=draw(st.integers(0, 30)),
                tag=draw(st.sampled_from(["", "V1->E1", "E1->E1"])),
                msg_id=msg_id,
            )
        )
    return messages


@given(message_lists())
@settings(max_examples=60, deadline=None)
def test_from_messages_round_trips(messages):
    table = MessageTable.from_messages(messages)
    assert len(table) == len(messages)
    back = table.to_messages()
    assert [(m, m.msg_id) for m in back] == [(m, m.msg_id) for m in messages]


@given(message_lists(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_list_and_table_schedule_identically(messages, multicast):
    """A hand-written list, wrapped in a table, schedules as the
    list-based oracle schedules the list itself."""
    from_list = oracle.StaticScheduler(TOPO).simulate(messages, multicast)
    table = MessageTable.from_messages(messages)
    from_table = StaticScheduler(TOPO).simulate(table, multicast)
    assert list(from_table.message_finish.items()) == list(
        from_list.message_finish.items()
    )
    assert list(from_table.tag_finish.items()) == list(from_list.tag_finish.items())
    assert tuple_loads(TOPO, from_table.link_loads) == from_list.link_stats.flits


def _permuted(table: MessageTable, perm: list[int]) -> MessageTable:
    messages = table.to_messages()
    return MessageTable.from_messages([messages[k] for k in perm])


@given(message_lists().flatmap(
    lambda messages: st.tuples(
        st.just(messages), st.permutations(range(len(messages)))
    )
))
@settings(max_examples=60, deadline=None)
def test_row_order_does_not_change_either_model(case):
    """Both models serve the table's priority order, a total order, so
    permuting the rows moves no finish cycle, tag finish or link load."""
    messages, perm = case
    table = MessageTable.from_messages(messages)
    shuffled = _permuted(table, perm)
    for multicast in (True, False):
        want = StaticScheduler(TOPO).simulate(table, multicast)
        got = StaticScheduler(TOPO).simulate(shuffled, multicast)
        assert got == want
        assert list(got.message_finish.items()) == list(want.message_finish.items())
        assert list(got.tag_finish.items()) == list(want.tag_finish.items())
    want = FlitSimulator(TOPO).simulate(table)
    got = FlitSimulator(TOPO).simulate(shuffled)
    assert got == want
    assert list(got.message_finish.items()) == list(want.message_finish.items())


def test_priority_order_is_inject_src_dests_id():
    """The order compares destinations as tuples: a prefix comes first."""
    table = MessageTable.from_messages([
        Message(3, (1, 2), 8, inject_cycle=0, msg_id=0),
        Message(3, (1,), 8, inject_cycle=0, msg_id=1),
        Message(0, (5,), 8, inject_cycle=2, msg_id=2),
        Message(4, (0,), 8, inject_cycle=0, msg_id=3),
        Message(3, (1,), 8, inject_cycle=0, msg_id=-4),
    ])
    assert table.msg_id[table.priority_order()].tolist() == [-4, 1, 0, 3, 2]


def _row_digest(table: MessageTable) -> str:
    rows = [
        (m.src, m.dests, m.size_bits, m.inject_cycle, m.tag, m.msg_id)
        for m in table.to_messages()
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: Rows of each generator, recorded from the ``Message``-list generators
#: they replace: the same RNG draws in the same order.
GENERATOR_ROWS = {
    "uniform-4x4x2-s0-w100": (
        lambda: uniform_random_traffic(Mesh3D(4, 4, 2), 40, 256, 0, 100),
        "08df4e74d47ee742",
    ),
    "uniform-4x4x2-s1-w100": (
        lambda: uniform_random_traffic(Mesh3D(4, 4, 2), 40, 256, 1, 100),
        "a9dffe9c39adb623",
    ),
    "uniform-8x8x3-s2-w0": (
        lambda: uniform_random_traffic(Mesh3D(8, 8, 3), 60, 512, seed=2),
        "d0438869a63243a5",
    ),
    "hotspot-4x4x2-s0-w50": (
        lambda: hotspot_traffic(Mesh3D(4, 4, 2), 40, 5, 0.3, seed=0, inject_window=50),
        "089098b13b7b8867",
    ),
    "hotspot-8x8x3-s1-w0": (
        lambda: hotspot_traffic(Mesh3D(8, 8, 3), 60, 100, 0.7, 128, seed=1),
        "327931dfe830f0a2",
    ),
    "m2o2m-4x4x2-s0-w80": (
        lambda: many_to_one_to_many_traffic(
            Mesh3D(4, 4, 2), list(range(6)), [10, 11, 12, 13], seed=0,
            inject_window=80,
        ),
        "9fedcae437e9a11a",
    ),
    "m2o2m-8x8x3-s1-w0": (
        lambda: many_to_one_to_many_traffic(
            Mesh3D(8, 8, 3), [0, 9, 18, 27], [100, 50], 64, seed=1
        ),
        "b8f4020883fd4cab",
    ),
}


@pytest.mark.parametrize("case", list(GENERATOR_ROWS))
def test_generator_rows_are_pinned(case):
    generate, digest = GENERATOR_ROWS[case]
    assert _row_digest(generate()) == digest


def test_caller_ids_label_the_finish_cycles():
    messages = [
        Message(0, (5, 11), 64, msg_id=42, tag="a"),
        Message(3, (0,), 32, inject_cycle=4, msg_id=7, tag="b"),
    ]
    table = MessageTable.from_messages(messages)
    result = StaticScheduler(TOPO).simulate(table)
    assert set(result.message_finish) == {42, 7}
    assert result.tag_finish == {
        "a": result.message_finish[42], "b": result.message_finish[7]
    }


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("seed", [None, 5])
def test_traffic_ids_rank_src_dests_tag(accelerator, ppi_workload, training, seed):
    config = accelerator.config
    stage_map = (
        contiguous_mapping(config, training)
        if seed is None
        else random_mapping(config, seed=seed, training=training)
    )
    table = GNNTrafficModel(
        config,
        stage_map,
        ppi_workload.block_mapping,
        ppi_workload.num_nodes_per_input,
        ppi_workload.layer_dims,
        training=training,
    ).messages()
    messages = table.to_messages()
    keys = [(m.src, m.dests, m.tag) for m in messages]
    assert all(m.dests == tuple(sorted(m.dests)) for m in messages)
    ranks = sorted(range(len(keys)), key=keys.__getitem__)
    assert [messages[r].msg_id for r in ranks] == list(range(len(keys)))
    assert len(set(keys)) == len(keys)
    assert np.all(table.inject == 0)
