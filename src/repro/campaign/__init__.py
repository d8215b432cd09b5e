"""Campaign engine: declarative scenario sweeps with parallel execution
and a persistent, content-addressed result store.

The pieces:

* :mod:`repro.campaign.spec` — ``Scenario``/``CampaignSpec``: declarative
  cross-products over architecture and workload knobs.
* :mod:`repro.campaign.executor` — serial or multi-process execution with
  deterministic per-scenario seeds and streamed
  :class:`~repro.campaign.executor.ProgressEvent` progress.
* :mod:`repro.campaign.store` — SHA-256 content-addressed JSON records
  under ``.repro_cache/`` (repeat sweeps are near-instant cache hits).
* :mod:`repro.campaign.results` — flat records and the
  ``CampaignResult`` both campaign flavours return, with JSON/CSV export.
* :mod:`repro.campaign.presets` — named sweeps for ``python -m repro sweep``.
* :mod:`repro.campaign.analysis` — Pareto fronts, best-record ranking and
  the summary table over architecture records.

Design-space sweeps (tiers, mesh, NoC clock, SA restarts) are specs over
:class:`~repro.campaign.spec.Scenario`; serving sweeps are specs over
:class:`~repro.serve.scenario.ServingScenario` run by
:func:`repro.serve.sweep.run_serving_campaign`.
"""

from repro.campaign.executor import (
    evaluate_scenario,
    run_cached_scenarios,
    run_campaign,
    run_scenarios,
)
from repro.campaign.presets import PRESETS, get_preset, preset_names
from repro.campaign.results import CampaignResult, ScenarioRecord
from repro.campaign.spec import SCHEMA_VERSION, CampaignSpec, Scenario
from repro.campaign.store import ResultStore, scenario_key

__all__ = [
    "Scenario",
    "CampaignSpec",
    "SCHEMA_VERSION",
    "ScenarioRecord",
    "CampaignResult",
    "ResultStore",
    "scenario_key",
    "evaluate_scenario",
    "run_scenarios",
    "run_cached_scenarios",
    "run_campaign",
    "PRESETS",
    "get_preset",
    "preset_names",
]
