"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure and prints the same
rows/series the paper reports (shapes are asserted; absolute numbers are
simulator-scale).  Use ``pytest benchmarks/ --benchmark-only -s`` to see
the rendered tables.
"""

from __future__ import annotations

import cProfile
import pstats
import types

import pytest

from repro.serve.engine import ServingEngine
from repro.serve.scenario import simulate_serving_scenario


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The experiments are deterministic end-to-end simulations (seconds of
    wall clock), so a single round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _nested_code(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested_code(const)


#: ``ServingEngine.run`` and every function nested in it (the event loop,
#: its handlers and shared steps), as profiler labels.
_ENGINE_CODE = frozenset(
    (code.co_filename, code.co_firstlineno, code.co_name)
    for code in _nested_code(ServingEngine.run.__code__)
)
#: The per-event-kind handlers: one invocation per processed event.
_HANDLERS = frozenset(label for label in _ENGINE_CODE if label[2].startswith("on_"))


def engine_work(fn, *args, **kwargs):
    """Run ``fn`` and count the serving engine's work per event.

    Returns ``(result, calls_per_event)``.  The work is every call the
    event loop and its handler and step functions make into a Python
    function outside the engine — scheduler, fleet, routing, sketch, SLO
    tracker, service-model and controller methods and properties — and
    the events are the handler invocations.  C builtins are not counted.
    Unlike a wall-clock ratio, the count is a deterministic function of
    the inputs, so a gate on it cannot flake with host load.
    """
    profile = cProfile.Profile(builtins=False)
    result = profile.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profile).stats
    events = sum(stats[label][1] for label in _HANDLERS if label in stats)
    calls = sum(
        counts[0]
        for callee, (*_, callers) in stats.items()
        if callee not in _ENGINE_CODE
        for caller, counts in callers.items()
        if caller in _ENGINE_CODE
    )
    return result, calls / events


@pytest.fixture(scope="session")
def plain_serving_work():
    """``engine_work`` of the plain 10^5-request serving run, once per session.

    ``test_bench_faults.PLAIN`` and ``test_bench_serve.HOM`` are the same
    scenario on the same analytic service model, the baseline both the
    armed-idle fault gate and the typed-fleet gate divide by.  It is
    profiled here once; the fixture fails if the two definitions drift
    apart.  Returns ``(report, calls_per_event)``.
    """
    from benchmarks import test_bench_faults, test_bench_serve

    scenario, service = test_bench_serve.HOM, test_bench_serve.SERVICE
    assert test_bench_faults.PLAIN == scenario
    assert type(test_bench_faults.SERVICE) is type(service)
    assert vars(test_bench_faults.SERVICE) == vars(service)
    return engine_work(simulate_serving_scenario, scenario, service=service)
