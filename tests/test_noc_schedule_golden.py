"""Golden digests of the static NoC schedule on real traffic.

The message sets are the traffic model's output for ppi@0.05 (seed 0,
contiguous stage map) on the paper's 8x8x3 mesh and on a 12x12x4 mesh,
the largest point of the ``nocscale`` campaign.  Each digest covers the
makespan, every message's finish cycle and every link's flit count, so a
scheduler change that moves a single flit or cycle fails here; a
deliberate change must re-pin these digests and bump the result-store
schema versions.

The same 12x12x4 traffic also bounds the scheduler's traced memory: the
routes are built in blocks, and building all of them at once would take
tens of MB.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import pytest

from oracles.link_tuples import tuple_loads
from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.mapping import contiguous_mapping
from repro.core.traffic import GNNTrafficModel
from repro.noc.schedule import StaticScheduler

MESHES = {"8x8x3": (8, 8, 3), "12x12x4": (12, 12, 4)}

#: (mesh, schedule_mode, multicast) -> blake2b digest of
#: (makespan, sorted message_finish, sorted per-link flits), links keyed by
#: their ``(a, b)`` tuples as when the digests were pinned.
SCHEDULE_GOLDEN = {
    ("8x8x3", "pipelined", True): "344a7fbbd14e747ecc7842ba34354a1d",
    ("8x8x3", "pipelined", False): "9757bb916b23ce7ba719b545fa8e95a6",
    ("8x8x3", "atomic", True): "05a93f083da8e7d0298ad63fae795de5",
    ("8x8x3", "atomic", False): "fafc9fd2ddcc37c18100271bba3a5096",
    ("12x12x4", "pipelined", True): "cdcb26fcfc8fd7a60b45de50168dabf3",
    ("12x12x4", "pipelined", False): "f10fa4a5739b7a464dd48545697923c3",
    ("12x12x4", "atomic", True): "07e74c7ea09158e553024f0a65842f2d",
    ("12x12x4", "atomic", False): "c1b39543b44d8ec4908577bd70a42554",
}


@lru_cache(maxsize=None)
def _traffic(mesh: str):
    width, height, tiers = MESHES[mesh]
    config = ReGraphXConfig(mesh_width=width, mesh_height=height, tiers=tiers)
    workload = ReGraphX(config).build_workload("ppi", scale=0.05, seed=0)
    traffic = GNNTrafficModel(
        config,
        contiguous_mapping(config),
        workload.block_mapping,
        workload.num_nodes_per_input,
        workload.layer_dims,
    )
    return config, traffic.messages()


def schedule_digest(result) -> str:
    payload = repr(
        (
            result.makespan_cycles,
            sorted(result.message_finish.items()),
            sorted(tuple_loads(result.topo, result.link_loads).items()),
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("mesh,mode,multicast", list(SCHEDULE_GOLDEN))
def test_schedule_digest(mesh, mode, multicast):
    config, messages = _traffic(mesh)
    noc = replace(config.noc, schedule_mode=mode)
    result = StaticScheduler(config.topology, noc).simulate(
        messages, multicast=multicast
    )
    assert schedule_digest(result) == SCHEDULE_GOLDEN[(mesh, mode, multicast)]


#: Traced peak of one ``simulate`` on the 12x12x4 traffic (pipelined,
#: multicast).  Blocked route building stays near 2 MB; building every
#: route at once peaks above 20 MB.
SIMULATE_PEAK_BYTES = 4_000_000


def test_simulate_peak_memory():
    config, messages = _traffic("12x12x4")
    scheduler = StaticScheduler(config.topology, config.noc)
    assert config.noc.schedule_mode == "pipelined"
    scheduler.simulate(messages)  # first-call allocations are not the bound's
    tracemalloc.start()
    try:
        scheduler.simulate(messages, multicast=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SIMULATE_PEAK_BYTES, f"simulate peaked at {peak / 1e6:.1f} MB"
