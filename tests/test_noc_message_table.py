"""Contract of :class:`repro.noc.packet.MessageTable`.

The table is the boundary between traffic extraction and the static
schedule.  It must reject exactly what :class:`Message` rejects, with the
same messages; round-trip through :class:`Message` lists; schedule a
list and its table identically, caller ids included; and carry the
traffic model's canonical numbering (ids rank ``(src, dests, tag)``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import contiguous_mapping, random_mapping
from repro.core.traffic import GNNTrafficModel
from repro.noc.packet import Message, MessageTable
from repro.noc.schedule import StaticScheduler
from repro.noc.topology import Mesh3D

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
        StaticScheduler(Mesh3D(4, 4, 2)).simulate(
            [Message(0, (5,), 32, msg_id=3), Message(1, (9,), 32, msg_id=3)]
        )


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
    scheduler = StaticScheduler(TOPO)
    from_list = scheduler.simulate(messages, multicast=multicast)
    from_table = scheduler.simulate(MessageTable.from_messages(messages), multicast)
    assert from_list == from_table


def test_caller_ids_label_the_finish_cycles():
    messages = [
        Message(0, (5, 11), 64, msg_id=42, tag="a"),
        Message(3, (0,), 32, inject_cycle=4, msg_id=7, tag="b"),
    ]
    table = MessageTable.from_messages(messages)
    result = StaticScheduler(TOPO).simulate(table)
    assert set(result.message_finish) == {42, 7}
    assert result == StaticScheduler(TOPO).simulate(messages)
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
