"""Telemetry benchmarks: null-recorder overhead and P² sketch accuracy.

Two promises keep the observability layer honest:

* **Opt-out is free.**  The engine resolves a disabled recorder to *no
  recorder* before its event loop, so a run with the default
  :class:`~repro.obs.NullRecorder` must do the same work per event as
  one with no recorder argument at all (<= 1.10x the calls from the
  event loop into the serving stack, counted by
  :func:`benchmarks.conftest.engine_work`; one host-time pair is
  printed, not gated).
* **Opt-in is cheap.**  The P² backend answers p99 within 2% of the
  store-everything oracle on a million-sample stream while holding a
  constant few dozen floats.

The P² timings are printed, not recorded.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import engine_work
from repro.obs import MemoryTraceRecorder, NullRecorder, make_sketch
from repro.serve.scenario import (
    ServingScenario,
    _service_for,
    simulate_serving_scenario,
)

SCENARIO = ServingScenario(
    arrival="mmpp",
    qps=1500.0,
    duration_seconds=1.0,
    instances=2,
    autoscaler="target-util",
    max_instances=6,
    admission="shed",
    queue_budget=64,
    seed=5,
)


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _lognormal(n: int, seed: int = 7) -> list[float]:
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 0.5) for _ in range(n)]


def test_null_recorder_overhead(benchmark):
    """Acceptance: a NullRecorder run does <= 1.10x an untraced run's
    work per event."""
    service = _service_for(SCENARIO)  # shared, so only the loop is counted
    benchmark.pedantic(
        simulate_serving_scenario,
        args=(SCENARIO,),
        kwargs={"service": service},
        rounds=1, iterations=1,
    )
    plain_report, plain_work = engine_work(
        simulate_serving_scenario, SCENARIO, service=service
    )
    null_report, null_work = engine_work(
        simulate_serving_scenario, SCENARIO, service=service,
        recorder=NullRecorder(),
    )
    assert null_report.render() == plain_report.render()
    t_plain = _timed(simulate_serving_scenario, SCENARIO, service=service)
    t_null = _timed(
        simulate_serving_scenario, SCENARIO, service=service,
        recorder=NullRecorder(),
    )
    ratio = null_work / plain_work
    print(
        f"\nwork per event: untraced {plain_work:.3f}, NullRecorder "
        f"{null_work:.3f} -> {ratio:.3f}x   (host time, not gated: "
        f"{t_plain * 1e3:.1f} ms vs {t_null * 1e3:.1f} ms)"
    )
    assert ratio <= 1.10


def test_p2_accuracy_at_scale(benchmark):
    """Acceptance: P² p99 within 2% of exact on 10^6 samples, O(1) state."""
    n = 1_000_000
    values = _lognormal(n)
    sketch = make_sketch("p2")
    state_before = sketch.state_size

    def stream() -> None:
        for v in values:
            sketch.add(v)

    t_stream = benchmark.pedantic(lambda: _timed(stream), rounds=1, iterations=1)
    oracle = make_sketch("exact")
    for v in values:
        oracle.add(v)

    errors = {
        q: abs(sketch.quantile(q) - oracle.quantile(q)) / oracle.quantile(q)
        for q in (50.0, 95.0, 99.0)
    }
    print(
        f"\n{n} samples in {t_stream:.2f} s "
        f"({n / t_stream / 1e3:.0f}k adds/s): "
        + "  ".join(f"p{q:g} err {e:.4%}" for q, e in errors.items())
        + f"  state {sketch.state_size} vs {oracle.state_size} floats"
    )
    assert errors[99.0] <= 0.02
    assert sketch.state_size == state_before  # constant through 10^6 adds
    assert sketch.count == oracle.count == n
    assert sketch.max == oracle.max


def test_obs_smoke(benchmark):
    """Single fast case for CI: accuracy at 2*10^4, tracing determinism
    (run via ``-k smoke`` on every Python version)."""
    values = _lognormal(20_000)
    sketch = make_sketch("p2")
    oracle = make_sketch("exact")

    def stream() -> None:
        for v in values:
            sketch.add(v)
            oracle.add(v)

    benchmark.pedantic(stream, rounds=1, iterations=1)
    assert abs(sketch.quantile(99.0) - oracle.quantile(99.0)) <= (
        0.02 * oracle.quantile(99.0)
    )
    assert sketch.state_size < 100 < oracle.state_size

    scenario = ServingScenario(qps=200.0, duration_seconds=0.3, seed=2)
    recorder = MemoryTraceRecorder(sample="all")
    simulate_serving_scenario(scenario, recorder=recorder)
    again = MemoryTraceRecorder(sample="all")
    simulate_serving_scenario(scenario, recorder=again)
    assert recorder.spans() == again.spans()
    assert recorder.spans()  # a real run leaves a real trace
