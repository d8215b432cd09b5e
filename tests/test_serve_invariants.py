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
"""

from __future__ import annotations

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
