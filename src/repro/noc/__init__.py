"""NoC substrate: 3D mesh topology, deterministic routing, multicast, and
two complementary performance models.

* :mod:`repro.noc.schedule` — the paper's methodology: traffic is statically
  scheduled, conflict-free, deterministic (Sec. V.A).  The scheduler
  pipelines wormhole packets over shared links along X-Y-Z trees, tile
  injection and ejection ports included, and reports makespan,
  per-message latency, link loads, and energy.
* :mod:`repro.noc.simulator` — a flit-level wormhole simulator used to
  validate the static scheduler.  It runs on the event-driven engine
  (:mod:`repro.noc.events`, cost scales with flit-hops); the cycle-stepped
  loop it is differentially tested against lives in ``tests/oracles/``.

Both models take one message form, a
:class:`repro.noc.packet.MessageTable` (what the GNN traffic model and
the synthetic generators build), and serve its rows in one priority
order with one flit count.  They also speak one link spelling, the
dense id ``router * PORTS + port`` (:mod:`repro.noc.topology`): they
read their routes from one builder, :func:`repro.noc.routing.link_paths`,
and their results carry the same flat per-link loads with one
accounting, :class:`repro.noc.stats.LinkLoads` (flit-hops by link class,
max link load, utilization, energy).
"""

from repro.noc.analysis import (
    average_hop_count,
    bisection_links,
    latency_throughput_sweep,
    saturation_rate,
)
from repro.noc.packet import Message, MessageTable
from repro.noc.events import EventEngine, ExpandedPacket
from repro.noc.schedule import NoCConfig, ScheduleResult, StaticScheduler
from repro.noc.simulator import FlitSimulator, SimulationResult
from repro.noc.stats import (
    LatencySummary,
    LinkLoads,
    percentile,
    summarize_latencies,
)
from repro.noc.topology import Mesh2D, Mesh3D
from repro.noc.traffic_gen import (
    hotspot_traffic,
    many_to_one_to_many_traffic,
    uniform_random_traffic,
)

__all__ = [
    "Mesh3D",
    "Mesh2D",
    "Message",
    "MessageTable",
    "NoCConfig",
    "StaticScheduler",
    "ScheduleResult",
    "FlitSimulator",
    "SimulationResult",
    "EventEngine",
    "ExpandedPacket",
    "LinkLoads",
    "LatencySummary",
    "percentile",
    "summarize_latencies",
    "uniform_random_traffic",
    "hotspot_traffic",
    "many_to_one_to_many_traffic",
    "latency_throughput_sweep",
    "saturation_rate",
    "bisection_links",
    "average_hop_count",
]
