"""Generated serving invariants: what every engine path must conserve.

Hypothesis draws knob combinations over faults x retry x hedging x
autoscaler x admission (shed / tarpit) x typed fleet + routing x open /
closed loop and runs each on the analytic ``LinearServiceModel`` over a
small stream.  Whatever branches a combination takes, four things hold:

* every offered request settles exactly once:
  completed + failed + shed == offered;
* utilization and availability are rates in [0, 1];
* every traced request reaches exactly one terminal span;
* the engine is deterministic: two identical runs give equal record
  metrics and renders.

Two more properties pin batching-deadline liveness (each queue keeps a
single timer at its head's deadline, re-armed as the head changes):

* on a fleet with an instance per request, every request's first
  dispatch happens by its arrival + ``max_wait``;
* on a small fleet, no request waits past that deadline while an
  instance sits idle.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TERMINAL_SPANS, MemoryTraceRecorder
from repro.serve.arrivals import ClosedLoopPool
from repro.serve.routing import ROUTING_POLICIES
from repro.serve.scenario import ServingRecord, ServingScenario
from repro.serve.service import LinearServiceModel

SERVICE = LinearServiceModel(base_seconds=0.002, per_node_seconds=2e-6)
DURATION = 0.3

KNOBS = st.fixed_dictionaries(
    {
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "qps": st.sampled_from([100.0, 300.0]),
        "max_batch": st.sampled_from([2, 8]),
        "faults": st.sampled_from(
            ["", "default", "mtbf=0.1,mttr=0.05", "slow_mtbf=0.1",
             "zones=2,zone_mtbf=0.1"]
        ),
        "retry": st.sampled_from(["none", "backoff", "deadline"]),
        "hedge_seconds": st.sampled_from([0.0, 0.005, 0.02]),
        "autoscaler": st.sampled_from(["none", "target-util", "queue-pid"]),
        "admission": st.sampled_from(["none", "shed", "tarpit"]),
        "queue_budget": st.sampled_from([4, 32]),
        "fleet": st.sampled_from(["", "small:2,large:1", "small:1,default:2"]),
        "routing": st.sampled_from(sorted(ROUTING_POLICIES)),
        "seed": st.integers(0, 2**16),
    }
)


def _run(scenario: ServingScenario, closed_loop: bool):
    recorder = MemoryTraceRecorder(sample="all")
    engine = scenario.build_engine(SERVICE, recorder=recorder)
    if closed_loop:
        report = engine.run(
            closed_loop=ClosedLoopPool(
                num_clients=4, think_seconds=0.005, seed=scenario.seed
            ),
            horizon_seconds=DURATION,
        )
    else:
        report = engine.run(
            requests=scenario.build_arrivals().generate(DURATION),
            horizon_seconds=DURATION,
        )
    return report, recorder


@settings(max_examples=150, deadline=None, derandomize=True)
@given(knobs=KNOBS, closed_loop=st.booleans())
def test_every_knob_combination_keeps_the_invariants(knobs, closed_loop):
    scenario = ServingScenario(duration_seconds=DURATION, **knobs)
    report, recorder = _run(scenario, closed_loop)

    shed = report.admission.shed if report.admission is not None else 0
    assert report.completed + report.failed + shed == report.offered
    assert 0.0 <= report.utilization <= 1.0
    assert 0.0 <= report.availability <= 1.0
    for request_id in recorder.request_ids():
        terminal = [
            s for s in recorder.spans_for(request_id)
            if s["kind"] in TERMINAL_SPANS
        ]
        assert len(terminal) == 1, (
            f"request {request_id} settled {len(terminal)} times"
        )

    again, _ = _run(scenario, closed_loop)
    record = ServingRecord.from_report(scenario, report, "-", 0.0)
    record_again = ServingRecord.from_report(scenario, again, "-", 0.0)
    assert record.metrics() == record_again.metrics()
    assert report.render() == again.render()


#: Knobs of the liveness properties: no faults, admission control,
#: autoscaling or hedging, so every request is dispatched exactly once
#: from the queue it was first routed to.
LIVENESS = st.fixed_dictionaries(
    {
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "qps": st.sampled_from([50.0, 200.0, 600.0]),
        "max_batch": st.sampled_from([1, 2, 4, 8]),
        "max_wait_seconds": st.sampled_from([0.0, 0.001, 0.004, 0.02]),
        "policy": st.sampled_from(["fifo", "wfq"]),
        "num_tenants": st.integers(1, 3),
        "seed": st.integers(0, 2**16),
    }
)
LIVENESS_DURATION = 0.2
#: ``ready()`` compares waits with this slack.
SLACK = 1e-9


def _dispatches(scenario: ServingScenario):
    """The stream, and the (time, instance) of every request's dispatch."""
    requests = scenario.build_arrivals().generate(LIVENESS_DURATION)
    recorder = MemoryTraceRecorder(sample="all")
    scenario.build_engine(SERVICE, recorder=recorder).run(
        requests=requests, horizon_seconds=LIVENESS_DURATION
    )
    return requests, recorder


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    knobs=LIVENESS,
    types=st.lists(
        st.sampled_from(["small", "default", "large"]), unique=True, max_size=3
    ),
    routing=st.sampled_from(sorted(ROUTING_POLICIES)),
)
def test_every_request_dispatches_by_its_deadline_on_an_idle_fleet(
    knobs, types, routing
):
    scenario = ServingScenario(duration_seconds=LIVENESS_DURATION, **knobs)
    # One instance per request in every type, so whichever type a
    # routing policy picks always has one free.
    n = max(len(scenario.build_arrivals().generate(LIVENESS_DURATION)), 1)
    scenario = ServingScenario(
        duration_seconds=LIVENESS_DURATION,
        instances=n,
        fleet=",".join(f"{t}:{n}" for t in types),
        routing=routing if types else "shared_queue",
        **knobs,
    )
    requests, recorder = _dispatches(scenario)
    max_wait = scenario.max_wait_seconds
    for request in requests:
        dispatch = [
            s["time"] for s in recorder.spans_for(request.request_id)
            if s["kind"] == "dispatch"
        ]
        assert dispatch, f"request {request.request_id} never dispatched"
        assert dispatch[0] <= request.arrival_time + max_wait + SLACK, (
            f"request {request.request_id} arrived {request.arrival_time}, "
            f"first dispatched {dispatch[0]} (max_wait {max_wait})"
        )


# Waits past a deadline beside an idle instance need a backlog that
# clears between arrivals, so this property draws more examples.
@settings(max_examples=250, deadline=None, derandomize=True)
@given(knobs=LIVENESS, instances=st.integers(1, 4))
def test_no_request_waits_past_its_deadline_beside_an_idle_instance(
    knobs, instances
):
    scenario = ServingScenario(
        duration_seconds=LIVENESS_DURATION, instances=instances, **knobs
    )
    requests, recorder = _dispatches(scenario)
    # Each instance's busy intervals: one per batch, dispatch to depart.
    busy: dict[str, set[tuple[float, float]]] = defaultdict(set)
    first: dict[int, float] = {}
    for request in requests:
        spans = recorder.spans_for(request.request_id)
        start = next(s for s in spans if s["kind"] == "dispatch")
        end = next(s for s in spans if s["kind"] == "depart")
        busy[start["instance"]].add((start["time"], end["time"]))
        first[request.request_id] = start["time"]
    idle = {}
    for label, intervals in busy.items():
        ordered = sorted(intervals)
        frees = [0.0] + [end for _, end in ordered]
        takes = [begin for begin, _ in ordered] + [float("inf")]
        idle[label] = list(zip(frees, takes))
    # Instances that never served anything were idle all along.
    unused = instances - len(idle)
    max_wait = scenario.max_wait_seconds
    for request in requests:
        deadline = request.arrival_time + max_wait + SLACK
        dispatched = first[request.request_id]
        if dispatched <= deadline:
            continue
        assert unused == 0, (
            f"request {request.request_id} waited past {deadline} "
            "beside an instance that never served"
        )
        for label, gaps in idle.items():
            for free, taken in gaps:
                assert max(free, deadline) >= min(taken, dispatched), (
                    f"request {request.request_id} (deadline {deadline}, "
                    f"dispatched {dispatched}) waited while {label} was "
                    f"idle in [{free}, {taken})"
                )
