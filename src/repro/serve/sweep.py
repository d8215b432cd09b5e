"""Serving campaigns: sweep scheduler/fleet knobs through the spec engine.

The generic :class:`~repro.campaign.spec.CampaignSpec` enumerates the
cross-product (its axes are validated against the base scenario's own
dataclass fields, so ``qps``/``max_batch``/``instances`` are legal axes
when the base is a :class:`~repro.serve.scenario.ServingScenario`);
:func:`run_serving_campaign` pushes every point through the same
cache-first fan-out core as architecture sweeps
(:func:`repro.campaign.executor.run_cached_scenarios`) and returns the
same ordered, exportable :class:`~repro.campaign.results.CampaignResult`;
:func:`serving_table` is its summary table.
"""

from __future__ import annotations

import time

from repro.campaign.executor import EventFn, run_cached_scenarios
from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.serve.scenario import (
    ServingRecord,
    ServingScenario,
    run_serving_scenario,
    serving_key,
)


def _serving_leaf(scenario: ServingScenario, key: str) -> ServingRecord:
    """Serving leaf with the ``(scenario, key)`` funnel signature.

    Store reads/writes happen in the funnel's parent process, never here.
    """
    return run_serving_scenario(scenario, key=key)


def run_serving_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    store: ResultStore | None = None,
    on_event: EventFn | None = None,
) -> CampaignResult:
    """Evaluate a serving campaign: cached points first, misses fanned out.

    Results come back in scenario order regardless of completion order,
    so serial and parallel runs are bit-identical.
    """
    scenarios = spec.scenarios()
    if scenarios and not isinstance(scenarios[0], ServingScenario):
        raise TypeError(
            "run_serving_campaign needs a CampaignSpec over ServingScenario; "
            "use repro.campaign.executor.run_campaign for architecture sweeps"
        )
    started = time.perf_counter()
    keys = [serving_key(s) for s in scenarios]
    records, hits, misses = run_cached_scenarios(
        scenarios,
        keys,
        _serving_leaf,
        ServingRecord,
        jobs=jobs,
        store=store,
        on_event=on_event,
    )
    return CampaignResult(
        name=spec.name,
        records=records,
        hits=hits,
        misses=misses,
        elapsed_seconds=time.perf_counter() - started,
    )


def serving_table(result: CampaignResult):
    """Summary table of the load/latency/SLO outcome per scenario."""
    from repro.experiments.common import ExperimentTable

    table = ExperimentTable(
        title=f"serving campaign '{result.name}'",
        columns=[
            "scenario", "served", "p50 ms", "p99 ms", "util", "viol%",
            "batch", "inst-s", "shed%",
        ],
    )
    for r in result.records:
        table.add_row(
            r.label,
            r.throughput_qps,
            r.p50_latency_seconds * 1e3,
            r.p99_latency_seconds * 1e3,
            r.utilization,
            r.slo_violation_rate * 100.0,
            r.mean_batch_size,
            r.instance_seconds,
            r.shed_rate * 100.0,
        )
    return table
