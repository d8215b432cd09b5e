"""Serving-engine benchmarks: the typed-fleet refactor must stay cheap.

The heterogeneous-fleet refactor rebuilt the engine's dispatch loop
around a routing policy and per-slice pools.  Two promises keep it
honest:

* **The default path pays nothing.**  A homogeneous ``default`` fleet
  behind the shared queue is the pre-refactor engine bit for bit (the
  regression suite pins that); this benchmark measures its *speed* — the
  event rate at 10^5 requests.
* **Typed fleets are cheap.**  Per-type billing is accrued lazily on
  occupancy transitions rather than per event, so a heterogeneous fleet
  with size-affinity routing may do at most 1.25x the homogeneous
  engine's work per event on the same 10^5-request workload: calls
  from its event loop into the serving stack, counted by
  :func:`benchmarks.conftest.engine_work` (a deterministic count, not a
  wall-clock ratio).

One host-time pair is printed, not gated: perfbench's ``serve-steady``
and ``serve-chaos`` workloads track the engine's host time.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import engine_work, timed
from repro.serve.scenario import ServingScenario, simulate_serving_scenario
from repro.serve.service import LinearServiceModel

#: 10^5 requests through a 4-instance fleet.  The analytic service model
#: keeps the run compute-bound on the event loop itself (no accelerator
#: calibration in the timed region), and the service rate keeps the
#: queues busy without melting down.
N_REQUESTS = 100_000
_DURATION = 2.0
_BASE = dict(
    # A hair over the target rate: Poisson draws undershoot the mean on
    # some seeds, and the 10^5 floor is part of the acceptance criterion.
    qps=1.03 * N_REQUESTS / _DURATION,
    duration_seconds=_DURATION,
    num_tenants=2,
    max_batch=8,
    max_wait_seconds=0.0005,
    seed=3,
)
SERVICE = LinearServiceModel(base_seconds=2e-4, per_node_seconds=1e-8)

HOM = ServingScenario(instances=4, **_BASE)
HET = ServingScenario(fleet="small:3,large:1", routing="size_affinity", **_BASE)


def test_typed_fleet_event_rate(benchmark, plain_serving_work):
    """Acceptance: het fleet <= 1.25x hom work per event at 10^5 requests."""
    hom_report, hom_work, t_hom = plain_serving_work
    het_report, het_work = engine_work(
        simulate_serving_scenario, HET, service=SERVICE
    )
    assert hom_report.offered >= N_REQUESTS
    assert het_report.offered >= N_REQUESTS
    # Both fleets actually serve the load (the comparison is only fair
    # between two busy engines, not one idle and one thrashing).
    assert hom_report.completed >= 0.99 * hom_report.offered
    assert het_report.completed >= 0.99 * het_report.offered

    # The plain run is timed once per session by the fixture; the
    # benchmark times the typed run.
    t_het = benchmark.pedantic(
        timed,
        args=(simulate_serving_scenario, HET),
        kwargs={"service": SERVICE},
        rounds=1, iterations=1,
    )
    ratio = het_work / hom_work
    print(
        f"\nwork per event: hom {hom_work:.3f}, het {het_work:.3f} -> "
        f"{ratio:.3f}x   (host time, not gated: {t_hom:.2f} s vs "
        f"{t_het:.2f} s)"
    )
    assert ratio <= 1.25


def test_serve_smoke(benchmark):
    """Single fast case for CI: a het run is consistent and deterministic
    (run via ``-k smoke`` on every Python version)."""
    scenario = ServingScenario(
        qps=2000.0,
        duration_seconds=0.5,
        fleet="small:2,large:1",
        routing="size_affinity",
        max_batch=8,
        seed=1,
    )
    report = benchmark.pedantic(
        simulate_serving_scenario,
        args=(scenario,),
        kwargs={"service": SERVICE},
        rounds=1, iterations=1,
    )
    assert report.fleet == "small:2,large:1"
    assert report.completed > 0
    assert report.cost_dollars > 0
    # Per-type accounting sums back to the fleet totals.
    assert sum(u.completed for u in report.per_type) == report.completed
    assert sum(u.batches for u in report.per_type) == report.batches
    assert sum(u.cost_dollars for u in report.per_type) == pytest.approx(
        report.cost_dollars
    )
    again = simulate_serving_scenario(scenario, service=SERVICE)
    assert again.completed == report.completed
    assert again.cost_dollars == report.cost_dollars
