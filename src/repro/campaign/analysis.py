"""Analysis over architecture campaign records.

Pareto fronts, best-record ranking and the summary table the CLI prints,
all computed straight from :class:`~repro.campaign.results.ScenarioRecord`
fields, so they apply equally to fresh and persisted campaign output.
"""

from __future__ import annotations

from typing import Sequence

from repro.campaign.results import CampaignResult, ScenarioRecord


def _dominates(a: ScenarioRecord, b: ScenarioRecord) -> bool:
    """``a`` is no worse than ``b`` on every axis and better on one."""
    ours = (a.epoch_seconds, a.epoch_energy_joules, a.peak_celsius)
    theirs = (b.epoch_seconds, b.epoch_energy_joules, b.peak_celsius)
    return ours != theirs and all(x <= y for x, y in zip(ours, theirs))


def pareto_records(records: Sequence[ScenarioRecord]) -> list[ScenarioRecord]:
    """Pareto-efficient records on (epoch time, energy, peak temperature).

    A record is dominated if another is no worse on all three axes and
    strictly better on at least one.  Duplicate points never dominate
    each other, so exact ties all survive, in input order.
    """
    return [r for r in records if not any(_dominates(q, r) for q in records)]


def best_record(
    records: Sequence[ScenarioRecord], metric: str = "edp"
) -> ScenarioRecord:
    """The feasible record minimizing ``metric`` (any over infeasible)."""
    if not records:
        raise ValueError("no records to rank")
    feasible = [r for r in records if r.thermally_feasible] or list(records)
    return min(feasible, key=lambda r: getattr(r, metric))


def campaign_table(result: CampaignResult):
    """Fixed-width summary of a campaign run (what the CLI prints)."""
    from repro.experiments.common import ExperimentTable

    table = ExperimentTable(
        f"Campaign {result.name!r}: {len(result)} scenarios, "
        f"{result.hits} cached / {result.misses} evaluated "
        f"in {result.elapsed_seconds:.1f}s",
        ["scenario", "epoch (s)", "energy (J)", "EDP", "peak (C)", "ok", "cached"],
    )
    for record in result.records:
        table.add_row(
            record.label,
            record.epoch_seconds,
            record.epoch_energy_joules,
            record.edp,
            record.peak_celsius,
            "yes" if record.thermally_feasible else "NO",
            "hit" if record.cached else "-",
        )
    return table
