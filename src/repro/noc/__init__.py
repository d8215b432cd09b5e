"""NoC substrate: 3D mesh topology, deterministic routing, multicast, and
two complementary performance models.

* :mod:`repro.noc.schedule` — the paper's methodology: traffic is statically
  scheduled, conflict-free, deterministic (Sec. V.A).  The scheduler
  serializes wormhole packets over shared links and reports makespan,
  per-message latency, link loads, and energy.
* :mod:`repro.noc.simulator` — a flit-level wormhole simulator used to
  validate the static scheduler.  It runs on the event-driven engine
  (:mod:`repro.noc.events`, cost scales with flit-hops); the cycle-stepped
  loop it is differentially tested against lives in ``tests/oracles/``.
"""

from repro.noc.analysis import (
    average_hop_count,
    bisection_links,
    latency_throughput_sweep,
    saturation_rate,
)
from repro.noc.packet import Message
from repro.noc.routing import (
    dimension_order_route,
    route_links,
    xyz_route,
)
from repro.noc.events import EventEngine, ExpandedPacket
from repro.noc.schedule import NoCConfig, ScheduleResult, StaticScheduler
from repro.noc.simulator import FlitSimulator, SimulationResult
from repro.noc.stats import (
    LatencySummary,
    LinkStats,
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
    "xyz_route",
    "dimension_order_route",
    "route_links",
    "NoCConfig",
    "StaticScheduler",
    "ScheduleResult",
    "FlitSimulator",
    "SimulationResult",
    "EventEngine",
    "ExpandedPacket",
    "LinkStats",
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
