"""NoC design study: 3D vs planar meshes, multicast vs unicast routing.

Reproduces the architectural argument of paper Sec. IV.B on synthetic
GNN-shaped traffic: the many-to-one-to-many pattern of V-PEs talking to a
shared set of E-PEs.  Compares four design points:

  3D mesh + multicast | 3D mesh + unicast | planar + multicast | planar + unicast

Run:  python examples/noc_study.py
"""

from dataclasses import replace

import numpy as np

from repro.baselines.planar import planar_mesh_for, planar_router_map
from repro.noc import (
    Mesh3D,
    MessageTable,
    NoCConfig,
    StaticScheduler,
    many_to_one_to_many_traffic,
)
from repro.utils.units import format_seconds


def remap_messages(messages: MessageTable, mapping: dict[int, int]) -> MessageTable:
    """Translate a 3D trace onto the flattened planar mesh."""
    lookup = np.array([mapping[router] for router in range(len(mapping))])
    return replace(messages, src=lookup[messages.src], dests=lookup[messages.dests])


def main() -> None:
    topo3d = Mesh3D(8, 8, 3)
    config = NoCConfig()
    # GNN-shaped traffic: 16 V routers (middle tier) each multicast a
    # feature block to 8 E routers (bottom tier), which reply to all
    # sources — the paper's many-to-one-to-many pattern.
    sources = topo3d.tier_routers(1)[:16]
    sinks = topo3d.tier_routers(0)[:8]
    messages = many_to_one_to_many_traffic(
        topo3d, sources, sinks, size_bits=16 * 1024
    )
    print(f"traffic: {len(messages)} messages, "
          f"{messages.bits.sum() / 8e3:.0f} KB total")

    flat = planar_mesh_for(topo3d)
    mapping = planar_router_map(topo3d)
    flat_messages = remap_messages(messages, mapping)

    print(f"\n{'design point':<24} {'delay':>10} {'flit-hops':>10} {'energy':>10}")
    for label, topo, msgs, multicast in [
        ("3D mesh + multicast", topo3d, messages, True),
        ("3D mesh + unicast", topo3d, messages, False),
        ("planar mesh + multicast", flat, flat_messages, True),
        ("planar mesh + unicast", flat, flat_messages, False),
    ]:
        result = StaticScheduler(topo, config).simulate(msgs, multicast=multicast)
        print(
            f"{label:<24} {format_seconds(result.makespan_seconds):>10} "
            f"{result.total_flit_hops:>10} {result.energy_joules() * 1e9:>8.1f} nJ"
        )

    print(
        "\nTree multicast is the dominant lever (duplicate flits vanish); "
        "the 3D mesh\nmatters most where multicast cannot help - under "
        "unicast the planar layout's\nlong V<->E paths more than double "
        "the delay. Both effects are what the paper\nbuilds ReGraphX "
        "around."
    )


if __name__ == "__main__":
    main()
