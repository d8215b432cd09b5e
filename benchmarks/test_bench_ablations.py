"""Ablation benchmarks for the design choices in docs/architecture.rst.

Not paper figures, but the arguments the paper makes in prose:
* heterogeneity (Sec. IV.A): an all-128x128 design wastes storage;
* 3D stacking (Sec. IV.B): a planar layout stretches V<->E paths;
* SA mapping (Sec. IV.D): placement vs. a random allocator;
* the NoC substrate itself under standard synthetic patterns.
"""

from benchmarks.conftest import run_once
from repro.baselines.homogeneous import homogeneous_epe_demand
from repro.baselines.planar import planar_mesh_for, planar_router_map
from repro.core.accelerator import ReGraphX
from repro.core.mapping import random_mapping
from repro.graph.datasets import load_dataset
from repro.noc import Mesh3D, Message, NoCConfig, StaticScheduler, uniform_random_traffic
from repro.reram.sparse_mapping import block_tile_adjacency
from repro.utils.units import format_seconds


def test_ablation_heterogeneity(benchmark):
    """Heterogeneous (8x8 E-PEs) vs homogeneous (128x128 everywhere)."""

    def run():
        graph = load_dataset("reddit", scale=0.01, seed=0, with_features=False)
        small = block_tile_adjacency(graph, 8)
        homogeneous = homogeneous_epe_demand(graph)
        return small, homogeneous

    small, homogeneous = run_once(benchmark, run)
    waste = homogeneous.zeros_stored / small.zeros_stored
    print(
        f"\nheterogeneous zeros: {small.zeros_stored:,} | homogeneous: "
        f"{homogeneous.zeros_stored:,} ({waste:.1f}x more)"
    )
    assert waste > 1.0


def test_ablation_planar_vs_3d(benchmark):
    """The same GNN-shaped multicast on a 3D mesh vs a flattened plane."""
    topo = Mesh3D(8, 8, 3)
    config = NoCConfig()
    sources = topo.tier_routers(1)
    sinks = topo.tier_routers(0)[:16]
    messages = [
        Message(src=s, dests=tuple(sinks), size_bits=8192, tag="gather", msg_id=i)
        for i, s in enumerate(sources)
    ]
    flat = planar_mesh_for(topo)
    mapping = planar_router_map(topo)
    flat_messages = [
        Message(
            src=mapping[m.src],
            dests=tuple(mapping[d] for d in m.dests),
            size_bits=m.size_bits,
            tag=m.tag,
            msg_id=m.msg_id,
        )
        for m in messages
    ]

    def run():
        r3d = StaticScheduler(topo, config).simulate(messages, multicast=False)
        r2d = StaticScheduler(flat, config).simulate(flat_messages, multicast=False)
        return r3d, r2d

    r3d, r2d = run_once(benchmark, run)
    print(
        f"\n3D unicast delay {format_seconds(r3d.makespan_seconds)} "
        f"({r3d.total_flit_hops:,} flit-hops) | planar "
        f"{format_seconds(r2d.makespan_seconds)} ({r2d.total_flit_hops:,})"
    )
    assert r2d.total_flit_hops > r3d.total_flit_hops
    assert r2d.makespan_cycles >= r3d.makespan_cycles


def test_ablation_mapping_policy(benchmark):
    """SA / contiguous placement vs a random allocator."""
    accelerator = ReGraphX()
    workload = accelerator.build_workload("reddit", scale=0.02, seed=0)

    def run():
        aligned = accelerator.evaluate(workload, multicast=True, use_sa=False)
        annealed = accelerator.evaluate(workload, multicast=True, use_sa=True, seed=0)
        randomized = accelerator.evaluate(
            workload, stage_map=random_mapping(accelerator.config, seed=3)
        )
        return aligned, annealed, randomized

    aligned, annealed, randomized = run_once(benchmark, run)
    print("\nmapping         worst comm    NoC energy/input   flit-hops")
    for label, rep in [
        ("contiguous", aligned),
        ("SA", annealed),
        ("random", randomized),
    ]:
        print(
            f"{label:<14} {format_seconds(rep.worst_communication):>11} "
            f"{rep.noc_energy_per_input * 1e6:>14.1f} uJ "
            f"{rep.schedule.total_flit_hops:>11,}"
        )
    # The SA objective (paper Sec. IV.D) is long-range traffic reduction:
    # placement-aware mappings move far fewer flit-hops (=> NoC energy)
    # than a random allocator.  Delay is ejection/bandwidth-bound in this
    # traffic, so it is mapping-insensitive (within ~20%).
    assert annealed.noc_energy_per_input < randomized.noc_energy_per_input
    assert aligned.noc_energy_per_input < randomized.noc_energy_per_input
    assert (
        annealed.worst_communication
        < 1.25 * randomized.worst_communication
    )


def test_ablation_noc_saturation(benchmark):
    """NoC substrate microbenchmark: uniform random load sweep."""
    topo = Mesh3D(8, 8, 3)
    scheduler = StaticScheduler(topo, NoCConfig())

    def run():
        rows = []
        for count in (50, 200, 800):
            msgs = uniform_random_traffic(topo, count, size_bits=512, seed=1)
            res = scheduler.simulate(msgs, multicast=False)
            rows.append((count, res.makespan_cycles, res.link_stats.max_link_load))
        return rows

    rows = run_once(benchmark, run)
    print("\nmessages  makespan(cycles)  max-link-load(flits)")
    for count, makespan, load in rows:
        print(f"{count:>8}  {makespan:>16}  {load:>20}")
    makespans = [r[1] for r in rows]
    assert makespans == sorted(makespans)
