"""NoC simulator benchmark: event-driven engine vs. cycle-stepped oracle.

The trace is the worst case for a cycle stepper and the common case for
campaign sweeps: high-contention many-to-one-to-many (GNN-shaped) traffic
whose injections are spread over a wide window, so the network is sparse
in time.  The cycle-stepped oracle (``tests/oracles/flit_cycle.py``) pays
for every elapsed cycle times every pending packet; the library's event
engine pays only per link grant, so its cost scales with flit-hops.  Both
must produce bit-identical results — the speedup is pure accounting, not
model drift.
"""

from __future__ import annotations

import time

from oracles.flit_cycle import CycleFlitSimulator
from repro.noc.simulator import FlitSimulator
from repro.noc.topology import Mesh3D
from repro.noc.traffic_gen import many_to_one_to_many_traffic

TOPO = Mesh3D(8, 8, 3)


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _contended_sparse_trace(inject_window: int):
    """All 64 V-tier routers multicast to 8 shared E-tier sinks (and back):
    heavy ejection-port contention, spread over ``inject_window`` cycles."""
    return many_to_one_to_many_traffic(
        TOPO,
        sources=TOPO.tier_routers(1),
        sinks=TOPO.tier_routers(0)[:8],
        size_bits=1024,
        seed=0,
        inject_window=inject_window,
    )


def test_event_backend_speedup(benchmark):
    """Acceptance: >= 10x speedup on sparse-in-time contended traffic."""
    msgs = _contended_sparse_trace(inject_window=20_000)
    sim = FlitSimulator(TOPO)

    event = benchmark.pedantic(
        sim.simulate, args=(msgs,), rounds=1, iterations=1,
    )
    # Best-of-3 for the short event-side measurement, so a preempted CI
    # runner cannot inflate a ~40 ms window into a spurious failure.
    t_event = min(_timed(sim.simulate, msgs) for _ in range(3))
    t0 = time.perf_counter()
    cycle = CycleFlitSimulator(TOPO).simulate(msgs)
    t_cycle = time.perf_counter() - t0

    assert event.message_finish == cycle.message_finish
    assert event.makespan_cycles == cycle.makespan_cycles
    assert event.link_stats.flits == cycle.link_stats.flits

    speedup = t_cycle / t_event
    print(
        f"\n{len(msgs)} messages, makespan {event.makespan_cycles} cycles: "
        f"event {t_event * 1e3:.1f} ms, cycle {t_cycle * 1e3:.1f} ms "
        f"-> {speedup:.0f}x speedup"
    )
    assert speedup >= 10.0


def test_event_backend_smoke(benchmark):
    """Single fast case for CI: the event engine digests a contended trace
    and matches the oracle (run via ``-k smoke`` on every Python version)."""
    msgs = _contended_sparse_trace(inject_window=500)
    sim = FlitSimulator(TOPO)
    event = benchmark.pedantic(
        sim.simulate, args=(msgs,), rounds=1, iterations=1,
    )
    cycle = CycleFlitSimulator(TOPO).simulate(msgs)
    assert event.message_finish == cycle.message_finish
    assert event.link_stats.flits == cycle.link_stats.flits
    assert event.makespan_cycles >= 500
