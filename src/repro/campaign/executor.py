"""Campaign execution: evaluate scenarios serially or across processes.

The executor is the single funnel every sweep goes through — CLI
campaigns, serving campaigns, the figures, tests.  For each scenario it
first consults the content-addressed
:class:`~repro.campaign.store.ResultStore` (a hit costs one JSON read),
then fans the remaining evaluations out over a ``ProcessPoolExecutor``
(``jobs > 1``) or runs them inline.  Results
come back in scenario order regardless of completion order, so parallel
and serial runs are bit-identical.

The cache-first fan-out core (:func:`run_cached_scenarios`) is generic
over the record type: any frozen dataclass with ``label``/``scenario``/
``eval_seconds``/``cached`` fields plus ``to_dict``/``from_dict`` — the
architecture :class:`~repro.campaign.results.ScenarioRecord` here, the
serving layer's ``ServingRecord`` in :mod:`repro.serve.sweep`.

Determinism: every scenario carries its own seed (part of its content
hash), and every random draw of an evaluation — graph generation, METIS
partitioning, cluster batching, SA mapping — comes from that seed alone;
worker processes share no RNG state.  Within one :func:`run_scenarios`
call, consecutive scenarios with the same ``(dataset, effective_scale,
seed, batch_size)`` reuse the graph and partition the first of them
built, and those that also share the crossbar size and layer count reuse
the whole workload: all are pure functions of their key and evaluation
never mutates them, so a reused build is bit-identical to a fresh one.  The memo lives
for one call and keeps one graph; each process-pool task gets an empty
copy, so serial and parallel runs still match.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence, TypeVar

from repro.campaign.results import CampaignResult, ScenarioRecord
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore, scenario_key
from repro.core.accelerator import ReGraphX, Workload
from repro.core.config import ReGraphXConfig
from repro.core.thermal import ThermalModel, ThermalSpec, tier_powers_from_report
from repro.graph.graph import CSRGraph
from repro.graph.partition import PartitionResult

@dataclass(frozen=True)
class ProgressEvent:
    """One streamed step of a cache-first campaign run.

    The funnel emits one ``started`` event when an evaluation begins and
    one terminal event per scenario — ``cache-hit`` (revived from the
    store) or ``finished`` (freshly computed) — so a consumer can render
    live progress, split hits from computed work, and show an ETA without
    re-deriving any of it.

    Attributes:
        kind: ``"started"`` / ``"cache-hit"`` / ``"finished"``.
        index: the scenario's position in the sweep (input order).
        total: scenarios in the sweep.
        done: scenarios complete after this event.
        label: the scenario's display label.
        eval_seconds: leaf wall time (terminal events; 0 for cache hits).
            The first scenario of a graph in an architecture sweep also
            carries that graph's generation and partition time; later
            scenarios on the same graph reuse it (see :class:`GraphMemo`).
        hits / computed: terminal-event tallies so far, split by origin.
        eta_seconds: projected wall time left, from the mean computed
            leaf time over the remaining uncached work (``None`` until
            one computed result exists, or when nothing remains).
    """

    kind: str
    index: int
    total: int
    done: int
    label: str
    eval_seconds: float = 0.0
    hits: int = 0
    computed: int = 0
    eta_seconds: float | None = None

    def render(self) -> str:
        """One-line form: ``[done/total] label  (status[, eta Ns])``."""
        if self.kind == "started":
            return f"[{self.done}/{self.total}] {self.label}  (running)"
        status = (
            "cache hit" if self.kind == "cache-hit"
            else f"{self.eval_seconds:.1f}s"
        )
        eta = (
            f", eta {self.eta_seconds:.0f}s"
            if self.eta_seconds is not None
            else ""
        )
        return f"[{self.done}/{self.total}] {self.label}  ({status}{eta})"


EventFn = Callable[[ProgressEvent], None]


class GraphMemo:
    """The graph, partition and workloads of the most recent graph built.

    A sweep over architecture knobs evaluates one training graph many
    times; the graph and its METIS partition depend only on
    ``(dataset, effective_scale, seed, batch_size)``, so scenarios that
    share that key build them once and hand them to
    :meth:`ReGraphX.build_workload` through its ``graph=``/``partition=``
    parameters.  The rest of the workload (the representative sub-graph,
    its block tiling and the layer dimensions) depends on that key plus
    the E-tile crossbar size and the layer count, so scenarios that share
    those too reuse the whole workload.

    Only the latest graph key is kept, so memory does not grow with the
    number of distinct graphs (presets enumerate their graph axes
    outermost).  A pickled memo arrives empty: every process-pool task
    builds its own.
    """

    def __init__(self) -> None:
        self._key: tuple[Any, ...] | None = None
        self._graph: CSRGraph | None = None
        self._partition: PartitionResult | None = None
        self._workloads: dict[tuple[int, int], Workload] = {}

    def __reduce__(self) -> tuple[type, tuple[()]]:
        return (GraphMemo, ())

    def build(self, accelerator: ReGraphX, scenario: Scenario) -> Workload:
        """``scenario``'s workload, reusing the memo's builds when they fit."""
        key = (
            scenario.dataset,
            scenario.effective_scale,
            scenario.seed,
            scenario.batch_size,
        )
        if key != self._key:
            # Drop the old graph before the next one is built.
            self._key, self._graph, self._partition = key, None, None
            self._workloads = {}
        config = accelerator.config
        tiling = (config.e_tile.crossbar_size, config.num_layers)
        if tiling not in self._workloads:
            workload = accelerator.build_workload(
                scenario.dataset,
                scale=scenario.effective_scale,
                seed=scenario.seed,
                batch_size=scenario.batch_size,
                graph=self._graph,
                partition=self._partition,
            )
            self._graph, self._partition = workload.graph, workload.partition
            self._workloads[tiling] = workload
        return self._workloads[tiling]


def evaluate_scenario(
    scenario: Scenario,
    base_config: ReGraphXConfig | None = None,
    thermal: ThermalSpec | None = None,
    key: str | None = None,
    *,
    graphs: GraphMemo | None = None,
) -> ScenarioRecord:
    """Evaluate one scenario end to end (timing, energy, thermals).

    This is the leaf evaluator — module-level so process pools can pickle
    it; it honours the scenario's multicast/SA flags and batch-size
    override.
    ``graphs`` is the memo :func:`run_scenarios` shares across one call;
    without it the graph and partition are built from scratch.
    """
    start = time.perf_counter()
    config = scenario.to_config(base_config)
    accelerator = ReGraphX(config)
    workload = (graphs or GraphMemo()).build(accelerator, scenario)
    report = accelerator.evaluate(
        workload,
        multicast=scenario.multicast,
        use_sa=scenario.use_sa,
        seed=scenario.seed,
        sa_restarts=scenario.sa_restarts,
    )
    profile = ThermalModel(thermal).steady_state(tier_powers_from_report(report))
    return ScenarioRecord(
        label=scenario.display_label,
        key=key if key is not None else scenario_key(scenario, base_config),
        scenario=scenario.describe(),
        epoch_seconds=report.epoch_seconds,
        epoch_energy_joules=report.epoch_energy,
        peak_celsius=profile.peak_celsius,
        thermally_feasible=profile.feasible,
        worst_compute_seconds=report.worst_compute,
        worst_communication_seconds=report.worst_communication,
        energy_per_input_joules=report.energy_per_input,
        num_inputs=report.pipeline.num_inputs,
        eval_seconds=time.perf_counter() - start,
        cached=False,
    )


R = TypeVar("R")


def run_cached_scenarios(
    scenarios: Sequence[Any],
    keys: Sequence[str],
    leaf: Callable[[Any, str], R],
    record_type: type[R],
    jobs: int = 1,
    store: ResultStore | None = None,
    on_event: EventFn | None = None,
) -> tuple[list[R], int, int]:
    """Cache-first fan-out: the shared core of every campaign flavour.

    For each ``(scenario, key)`` pair, a stored record is revived (and
    relabelled with the scenario's current display label); misses run
    through ``leaf(scenario, key)`` — inline, or across a process pool —
    and are persisted by this parent, so workers never touch the store.

    Args:
        scenarios: evaluation points, already labelled and seeded.
        keys: one content-hash per scenario (same order).
        leaf: module-level (picklable) evaluator returning one record.
        record_type: record dataclass providing ``from_dict``.
        jobs: worker processes for cache misses (``<= 1`` runs inline).
        store: result cache; ``None`` disables persistence entirely.
        on_event: :class:`ProgressEvent` callback — start events, one
            terminal event per scenario with hit vs computed tallies,
            and an ETA (``lambda e: print(e.render())`` streams lines).

    Returns:
        ``(records in scenario order, cache hits, cache misses)``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    scenarios = list(scenarios)
    records: list[R | None] = [None] * len(scenarios)

    pending: list[int] = []
    for i, (scenario, key) in enumerate(zip(scenarios, keys)):
        stored = store.get(key) if store is not None else None
        if stored is not None:
            records[i] = _relabel(
                record_type.from_dict(stored, cached=True),  # type: ignore[attr-defined]
                scenario.display_label,
            )
        else:
            pending.append(i)
    hits = len(scenarios) - len(pending)

    done = 0
    hits_done = 0
    computed_done = 0
    computed_time = 0.0
    total = len(scenarios)
    effective_jobs = max(1, min(jobs, len(pending)))

    def announce(index: int) -> None:
        if on_event is not None:
            on_event(
                ProgressEvent(
                    kind="started",
                    index=index,
                    total=total,
                    done=done,
                    label=scenarios[index].display_label,
                    hits=hits_done,
                    computed=computed_done,
                )
            )

    def report(index: int, record: Any) -> None:
        nonlocal done, hits_done, computed_done, computed_time
        done += 1
        if record.cached:
            hits_done += 1
        else:
            computed_done += 1
            computed_time += record.eval_seconds
        if on_event is not None:
            pending_left = len(pending) - computed_done
            eta = (
                (computed_time / computed_done) * pending_left / effective_jobs
                if pending_left > 0 and computed_done > 0
                else None
            )
            on_event(
                ProgressEvent(
                    kind="cache-hit" if record.cached else "finished",
                    index=index,
                    total=total,
                    done=done,
                    label=record.label,
                    eval_seconds=record.eval_seconds,
                    hits=hits_done,
                    computed=computed_done,
                    eta_seconds=eta,
                )
            )

    for i in range(len(scenarios)):
        if records[i] is not None:
            report(i, records[i])

    if pending and jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {}
            for i in pending:
                announce(i)
                futures[pool.submit(leaf, scenarios[i], keys[i])] = i
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    i = futures[future]
                    record = future.result()
                    records[i] = record
                    if store is not None:
                        store.put(keys[i], record.to_dict())  # type: ignore[attr-defined]
                    report(i, record)
    else:
        for i in pending:
            announce(i)
            record = leaf(scenarios[i], keys[i])
            records[i] = record
            if store is not None:
                store.put(keys[i], record.to_dict())  # type: ignore[attr-defined]
            report(i, record)

    assert all(r is not None for r in records)
    return list(records), hits, len(pending)  # type: ignore[arg-type]


def _evaluate_leaf(
    scenario: Scenario,
    key: str,
    base_config: ReGraphXConfig | None = None,
    graphs: GraphMemo | None = None,
) -> ScenarioRecord:
    """Architecture leaf with the ``(scenario, key)`` funnel signature."""
    return evaluate_scenario(scenario, base_config, key=key, graphs=graphs)


def run_scenarios(
    scenarios: Sequence[Scenario],
    base_config: ReGraphXConfig | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
    name: str = "campaign",
    on_event: EventFn | None = None,
) -> CampaignResult:
    """Run ``scenarios``, reusing stored results and fanning out misses.

    Consecutive misses on the same graph share one build through a
    :class:`GraphMemo` that lives for this call only.

    Args:
        scenarios: evaluation points, already labelled and seeded.
        base_config: architecture every scenario's overrides apply to.
        jobs: worker processes for cache misses (``<= 1`` runs inline).
        store: result cache; ``None`` disables persistence entirely.
        name: campaign name carried into the result.
        on_event: :class:`ProgressEvent` callback.
    """
    scenarios = list(scenarios)
    started = time.perf_counter()
    keys = [scenario_key(s, base_config) for s in scenarios]
    records, hits, misses = run_cached_scenarios(
        scenarios,
        keys,
        partial(_evaluate_leaf, base_config=base_config, graphs=GraphMemo()),
        ScenarioRecord,
        jobs=jobs,
        store=store,
        on_event=on_event,
    )
    return CampaignResult(
        name=name,
        records=records,
        hits=hits,
        misses=misses,
        elapsed_seconds=time.perf_counter() - started,
    )


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    store: ResultStore | None = None,
    on_event: EventFn | None = None,
) -> CampaignResult:
    """Enumerate a :class:`CampaignSpec` and run it through the engine."""
    return run_scenarios(
        spec.scenarios(),
        base_config=spec.base_config,
        jobs=jobs,
        store=store,
        name=spec.name,
        on_event=on_event,
    )


def _relabel(record: R, display_label: str) -> R:
    """Carry the *current* display label on a cached record.

    Labels are presentation, not content — two sweeps may name the same
    evaluation point differently, and each should see its own name.
    Works on any record dataclass with ``label`` + ``scenario`` fields.
    """
    if record.label == display_label:  # type: ignore[attr-defined]
        return record
    from dataclasses import replace

    described = dict(record.scenario)  # type: ignore[attr-defined]
    described["label"] = display_label
    return replace(  # type: ignore[type-var]
        record, label=display_label, scenario=described
    )
