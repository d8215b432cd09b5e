"""Reliability-layer benchmarks: fault machinery must be free when idle.

The fault/retry layer threads through the engine's hottest paths — every
dispatch checks for an active slowdown and records its in-flight batch,
every departure clears it.  Two promises keep the layer honest:

* **The default path is unchanged.**  With ``faults``/``retry`` left at
  their defaults no fault or retry event is ever scheduled (the
  regression suite pins bit-identical output; the serve benchmark
  measures its speed).
* **Armed-but-idle is nearly free.**  A fault spec whose event rates
  are astronomically low (MTBF of 10^9 simulated seconds — no fault
  ever fires inside the horizon) still seeds every fault process and
  arms the retry policy.  On the same 10^5-request workload the engine
  may do at most 1.10x the plain engine's work per event: calls from
  its event loop into the serving stack, counted by
  :func:`benchmarks.conftest.engine_work` (a deterministic count, not
  a wall-clock ratio).

One host-time pair is printed, not gated: perfbench's ``serve-chaos``
and ``serve-steady`` workloads track the engine's host time.
"""

from __future__ import annotations

import time

from benchmarks.conftest import engine_work
from repro.serve.scenario import ServingScenario, simulate_serving_scenario
from repro.serve.service import LinearServiceModel

#: 10^5 requests through a 4-instance fleet, mirroring the serve
#: benchmark's regime: the analytic service model keeps the run
#: compute-bound on the event loop, which is exactly where the
#: reliability bookkeeping lives.
N_REQUESTS = 100_000
_DURATION = 2.0
_BASE = dict(
    qps=1.03 * N_REQUESTS / _DURATION,
    duration_seconds=_DURATION,
    num_tenants=2,
    max_batch=8,
    max_wait_seconds=0.0005,
    instances=4,
    seed=3,
)
SERVICE = LinearServiceModel(base_seconds=2e-4, per_node_seconds=1e-8)

PLAIN = ServingScenario(**_BASE)
#: Every fault process armed at a rate that can never fire in-horizon.
INERT = ServingScenario(
    **_BASE,
    faults="mtbf=1e9,slow_mtbf=1e9,zones=2,zone_mtbf=1e9",
    retry="backoff",
)


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def test_idle_fault_machinery_overhead(benchmark, plain_serving_work):
    """Acceptance: armed-but-idle faults <= 1.10x plain work per event."""
    plain_report, plain_work = plain_serving_work
    inert_report, inert_work = engine_work(
        simulate_serving_scenario, INERT, service=SERVICE
    )
    assert plain_report.offered >= N_REQUESTS
    # No fault ever fired: the two engines did identical serving work.
    assert inert_report.crashes == 0
    assert inert_report.failed == 0
    assert inert_report.retries == 0
    assert inert_report.completed == plain_report.completed
    assert inert_report.latency.p99 == plain_report.latency.p99

    benchmark.pedantic(
        simulate_serving_scenario,
        args=(PLAIN,),
        kwargs={"service": SERVICE},
        rounds=1, iterations=1,
    )
    t_plain = _timed(simulate_serving_scenario, PLAIN, service=SERVICE)
    t_inert = _timed(simulate_serving_scenario, INERT, service=SERVICE)
    ratio = inert_work / plain_work
    print(
        f"\nwork per event: plain {plain_work:.3f}, armed-idle "
        f"{inert_work:.3f} -> {ratio:.3f}x   (host time, not gated: "
        f"{t_plain:.2f} s vs {t_inert:.2f} s)"
    )
    assert ratio <= 1.10


def test_faults_smoke(benchmark):
    """Single fast case for CI: a faulted+retried+hedged run completes,
    stays deterministic, and conserves the offered load."""
    scenario = ServingScenario(
        qps=2000.0,
        duration_seconds=0.5,
        fleet="small:2,large:1",
        routing="size_affinity",
        max_batch=8,
        faults="default",
        retry="backoff",
        hedge_seconds=0.002,
        seed=1,
    )
    report = benchmark.pedantic(
        simulate_serving_scenario,
        args=(scenario,),
        kwargs={"service": SERVICE},
        rounds=1, iterations=1,
    )
    again = simulate_serving_scenario(scenario, service=SERVICE)
    assert report.crashes > 0
    assert report.completed + report.failed == report.offered
    assert report.render() == again.render()
