"""NoC evaluation utilities: load sweeps, saturation, bisection, hop stats.

Standard network-on-chip characterization on top of the static scheduler:
latency-vs-injection-rate curves (the saturation plot every NoC paper
shows), bisection link counts, and average hop distance under a traffic
pattern.  Reached from the NoC-saturation extension benchmark and the
README's flit-simulator example, not from the paper pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.schedule import NoCConfig, StaticScheduler
from repro.noc.simulator import FlitSimulator
from repro.noc.stats import summarize_latencies
from repro.noc.topology import Mesh3D
from repro.noc.traffic_gen import uniform_random_traffic


@dataclass(frozen=True)
class SweepPoint:
    """One injection-rate sample of a load sweep.

    Besides the mean, each point carries the tail of the latency
    distribution (p50/p95/p99 finish-time latencies) — saturation shows in
    the tail long before it moves the mean.
    """

    offered_rate: float  # messages per router per 100 cycles
    average_latency_cycles: float
    makespan_cycles: int
    max_link_load: int
    p50_latency_cycles: float = 0.0
    p95_latency_cycles: float = 0.0
    p99_latency_cycles: float = 0.0

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: latency >> uncontended scale."""
        return self.average_latency_cycles > 10 * 64


def latency_throughput_sweep(
    topo: Mesh3D,
    rates: list[float],
    config: NoCConfig | None = None,
    window_cycles: int = 2000,
    size_bits: int = 256,
    seed: int = 0,
    backend: str = "static",
) -> list[SweepPoint]:
    """Average latency under uniform-random traffic at each offered rate.

    Args:
        topo: the mesh.
        rates: offered load in messages per router per 100 cycles.
        config: NoC parameters.
        window_cycles: injection window; messages arrive uniformly in it.
        size_bits: message payload.
        seed: RNG seed.
        backend: ``"static"`` evaluates the paper's conflict-free schedule
            analyzer; ``"event"`` runs the event-driven flit-level simulator
            instead (its cost scales with flit-hops, so long windows stay
            affordable).

    Returns:
        One :class:`SweepPoint` per rate, in order.
    """
    if not rates:
        raise ValueError("need at least one rate")
    if any(r <= 0 for r in rates):
        raise ValueError("rates must be positive")
    if backend not in ("static", "event"):
        raise ValueError(f"backend must be 'static' or 'event', got {backend!r}")
    config = config or NoCConfig()
    scheduler = StaticScheduler(topo, config)
    points: list[SweepPoint] = []
    for rate in rates:
        count = max(1, int(rate * topo.num_routers * window_cycles / 100))
        messages = uniform_random_traffic(
            topo, count, size_bits, seed=seed, inject_window=window_cycles - 1
        )
        if backend == "static":
            result = scheduler.simulate(messages, multicast=False)
            latencies = [
                result.message_finish[m.msg_id] - m.inject_cycle for m in messages
            ]
        else:
            result = FlitSimulator(topo, config).simulate(messages)
            latencies = [
                result.message_finish[(m.msg_id, m.dests[0])] - m.inject_cycle
                for m in messages
            ]
        summary = summarize_latencies(latencies)
        points.append(
            SweepPoint(
                offered_rate=rate,
                average_latency_cycles=summary.mean,
                makespan_cycles=result.makespan_cycles,
                max_link_load=result.max_link_load,
                p50_latency_cycles=summary.p50,
                p95_latency_cycles=summary.p95,
                p99_latency_cycles=summary.p99,
            )
        )
    return points


def saturation_rate(points: list[SweepPoint]) -> float | None:
    """First offered rate at which the network saturates (None if never)."""
    for point in points:
        if point.saturated:
            return point.offered_rate
    return None


def bisection_links(topo: Mesh3D) -> int:
    """Directed links crossing the X mid-plane — the bisection bandwidth
    in links (multiply by flit rate for bits/s).

    Every (y, z) row of a mesh at least two routers wide crosses the cut
    with one +x and one -x link.
    """
    return 2 * topo.height * topo.tiers if topo.width > 1 else 0


def average_hop_count(
    topo: Mesh3D, pairs: list[tuple[int, int]] | None = None
) -> float:
    """Mean minimal hop distance, over ``pairs`` or all distinct pairs."""
    if pairs is None:
        n = topo.num_routers
        total = 0
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    total += topo.distance(src, dst)
        return total / (n * (n - 1))
    if not pairs:
        raise ValueError("pairs must be non-empty")
    return float(np.mean([topo.distance(s, d) for s, d in pairs]))
