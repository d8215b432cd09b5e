"""Tests for the campaign executor: caching, parallelism, determinism.

The scenarios here use PPI at scale 0.05 (the cheapest real workload) and
one shared module-scoped first run, so the whole file costs only a
handful of evaluations.  The graph-reuse and build-count tests run PPI at
scales 0.005-0.01, where one evaluation takes well under 0.1 s.
"""

import json
from dataclasses import replace

import pytest

from repro.campaign.analysis import campaign_table
from repro.campaign.executor import (
    GraphMemo,
    ProgressEvent,
    evaluate_scenario,
    run_campaign,
    run_scenarios,
)
from repro.campaign.presets import get_preset
from repro.campaign.results import ScenarioRecord
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore

SCENARIOS = [
    Scenario(dataset="ppi", scale=0.05, tiers=2, label="2-tier"),
    Scenario(dataset="ppi", scale=0.05, tiers=3, label="3-tier"),
    Scenario(dataset="ppi", scale=0.05, tiers=3, multicast=False, label="3-tier-uni"),
]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("repro_cache"))


@pytest.fixture(scope="module")
def first_run(store):
    return run_scenarios(SCENARIOS, store=store, name="exec-test")


class TestCaching:
    def test_first_run_evaluates_everything(self, first_run, store):
        assert first_run.misses == len(SCENARIOS)
        assert first_run.hits == 0
        assert not any(r.cached for r in first_run.records)
        assert len(store) == len(SCENARIOS)

    def test_second_run_is_pure_cache_hits(self, first_run, store, monkeypatch):
        # Prove "zero re-evaluations": any evaluation would blow up.
        def boom(*args, **kwargs):
            raise AssertionError("cache hit expected; evaluator was called")

        monkeypatch.setattr("repro.campaign.executor.evaluate_scenario", boom)
        second = run_scenarios(SCENARIOS, store=store, name="exec-test")
        assert second.hits == len(SCENARIOS)
        assert second.misses == 0
        assert all(r.cached for r in second.records)
        assert [r.metrics() for r in second.records] == [
            r.metrics() for r in first_run.records
        ]
        assert [r.key for r in second.records] == [r.key for r in first_run.records]

    def test_no_store_never_persists(self, tmp_path):
        result = run_scenarios(SCENARIOS[:1], store=None, name="volatile")
        assert result.misses == 1
        # And an unrelated store directory stays empty.
        assert len(ResultStore(tmp_path)) == 0

    def test_cache_shared_across_campaign_shapes(self, first_run, store, monkeypatch):
        """A CampaignSpec naming the same points reuses the sweep's records."""

        def boom(*args, **kwargs):
            raise AssertionError("cross-campaign cache hit expected")

        monkeypatch.setattr("repro.campaign.executor.evaluate_scenario", boom)
        spec = CampaignSpec(
            name="reshaped",
            base=Scenario(dataset="ppi", scale=0.05),
            axes=(("tiers", (2, 3)),),
        )
        result = run_campaign(spec, store=store)
        assert result.hits == 2 and result.misses == 0
        # Cached records carry the *current* campaign's labels.
        assert [r.label for r in result.records] == [
            s.display_label for s in spec.scenarios()
        ]

    def test_records_in_scenario_order(self, first_run):
        assert [r.label for r in first_run.records] == [
            s.label for s in SCENARIOS
        ]


class TestParallel:
    def test_parallel_matches_serial(self, first_run, tmp_path):
        parallel = run_scenarios(
            SCENARIOS,
            jobs=2,
            store=ResultStore(tmp_path / "fresh"),
            name="exec-test",
        )
        assert parallel.misses == len(SCENARIOS)
        assert [r.label for r in parallel.records] == [
            r.label for r in first_run.records
        ]
        assert [r.metrics() for r in parallel.records] == [
            r.metrics() for r in first_run.records
        ]
        assert [r.key for r in parallel.records] == [
            r.key for r in first_run.records
        ]

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            run_scenarios(SCENARIOS, jobs=0)


class TestProgressEvents:
    def test_cache_hits_stream_terminal_events_only(self, first_run, store):
        events = []
        run_scenarios(SCENARIOS, store=store, on_event=events.append)
        assert [e.kind for e in events] == ["cache-hit"] * len(SCENARIOS)
        assert [e.done for e in events] == [1, 2, 3]
        assert events[-1].hits == len(SCENARIOS)
        assert events[-1].computed == 0
        assert all(e.eta_seconds is None for e in events)

    def test_computed_runs_announce_then_finish(self):
        events = []
        run_scenarios(SCENARIOS[:2], store=None, on_event=events.append)
        assert [e.kind for e in events] == [
            "started", "finished", "started", "finished",
        ]
        # The first finish projects the remaining uncached work; the last
        # one has nothing left to project.
        assert events[1].eta_seconds is not None
        assert events[1].eta_seconds > 0
        assert events[3].eta_seconds is None
        assert events[3].computed == 2
        assert all(e.total == 2 for e in events)
        assert [e.label for e in events] == [
            "2-tier", "2-tier", "3-tier", "3-tier",
        ]

    def test_event_and_string_progress_agree(self, first_run, store):
        """Terminal events render as the one-line-per-scenario progress."""
        events = []
        run_scenarios(SCENARIOS, store=store, on_event=events.append)
        assert [e.render() for e in events] == [
            f"[{i}/{len(SCENARIOS)}] {s.label}  (cache hit)"
            for i, s in enumerate(SCENARIOS, start=1)
        ]

    def test_render_formats(self):
        started = ProgressEvent(
            kind="started", index=0, total=4, done=0, label="point",
        )
        assert started.render() == "[0/4] point  (running)"
        hit = ProgressEvent(
            kind="cache-hit", index=0, total=4, done=1, label="point", hits=1,
        )
        assert hit.render() == "[1/4] point  (cache hit)"
        finished = ProgressEvent(
            kind="finished", index=1, total=4, done=2, label="point",
            eval_seconds=1.26, computed=1, eta_seconds=12.4,
        )
        assert finished.render() == "[2/4] point  (1.3s, eta 12s)"


class TestProgressAndExport:
    def test_progress_reports_every_scenario(self, first_run, store):
        lines = []
        run_scenarios(
            SCENARIOS, store=store, on_event=lambda e: lines.append(e.render())
        )
        assert len(lines) == len(SCENARIOS)
        assert all("cache hit" in line for line in lines)

    def test_json_export_roundtrip(self, first_run, tmp_path):
        path = first_run.to_json(tmp_path / "out" / "campaign.json")
        payload = json.loads(path.read_text())
        assert payload["campaign"] == "exec-test"
        assert payload["num_scenarios"] == len(SCENARIOS)
        assert payload["records"] == [r.to_dict() for r in first_run.records]

    def test_csv_export_one_row_per_scenario(self, first_run, tmp_path):
        import csv

        path = first_run.to_csv(tmp_path / "out" / "campaign.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(SCENARIOS)
        assert rows[0]["label"] == "2-tier"
        assert float(rows[0]["epoch_seconds"]) > 0
        assert {"dataset", "tiers", "multicast", "edp"} <= set(rows[0])

    def test_table_renders(self, first_run):
        text = campaign_table(first_run).render()
        assert "exec-test" in text and "2-tier" in text

    def test_record_roundtrip_preserves_metrics(self, first_run):
        record = first_run.records[0]
        rebuilt = ScenarioRecord.from_dict(record.to_dict(), cached=True)
        assert rebuilt.metrics() == record.metrics()
        assert rebuilt.cached


# Two seeds x two scales x two batch sizes, visited in Gray-code order so
# each graph axis changes alone at some step, each graph then swept over
# two mesh widths (graph axes outermost, as every preset enumerates them).
# The two trailing points reuse the last graph under other flags.
_GRAPH_KEYS = [
    (0, 0.005, 2), (0, 0.005, 5), (0, 0.01, 5), (0, 0.01, 2),
    (1, 0.01, 2), (1, 0.01, 5), (1, 0.005, 5), (1, 0.005, 2),
]
REUSE_SWEEP = [
    Scenario(dataset="ppi", seed=seed, scale=scale, batch_size=batch,
             mesh_width=width)
    for seed, scale, batch in _GRAPH_KEYS
    for width in (6, 8)
] + [
    Scenario(dataset="ppi", seed=1, scale=0.005, batch_size=2, mesh_width=8,
             multicast=False),
    Scenario(dataset="ppi", seed=1, scale=0.005, batch_size=2, use_sa=True),
]


def _timeless(records):
    return [replace(r, eval_seconds=0.0) for r in records]


@pytest.fixture(scope="module")
def reuse_inline():
    return run_scenarios(REUSE_SWEEP, jobs=1)


class TestGraphReuse:
    """One build per graph within a call, bit-identical to building each."""

    def test_inline_matches_each_scenario_alone(self, reuse_inline):
        alone = [evaluate_scenario(s) for s in REUSE_SWEEP]
        assert _timeless(reuse_inline.records) == _timeless(alone)

    def test_pool_matches_inline(self, reuse_inline):
        pooled = run_scenarios(REUSE_SWEEP, jobs=2)
        assert _timeless(pooled.records) == _timeless(reuse_inline.records)


def _count_calls(monkeypatch, owners: dict) -> dict[str, int]:
    """Wrap ``getattr(owners[name], name)`` for each name; count its calls."""
    counts = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


@pytest.fixture
def builds(monkeypatch):
    """Count graph generations and partitions made by ``build_workload``."""
    import repro.core.accelerator as accelerator

    owners = {"load_dataset": accelerator, "partition_graph": accelerator}
    return _count_calls(monkeypatch, owners)


@pytest.fixture
def tilings(monkeypatch):
    """Count the sub-graphs and block tilings ``build_workload`` makes."""
    import repro.core.accelerator as accelerator
    from repro.graph.clustering import ClusterBatcher

    owners = {"first_batch": ClusterBatcher, "block_tile_adjacency": accelerator}
    return _count_calls(monkeypatch, owners)


class TestBuildCount:
    def test_architecture_sweep_tiles_once(self, tilings):
        spec = get_preset("nocscale")
        tiny = replace(spec, base=replace(spec.base, scale=0.005))
        assert run_campaign(tiny).misses == len(tiny) > 1
        assert tilings == {"first_batch": 1, "block_tile_adjacency": 1}

    def test_crossbar_size_retiles(self, tilings):
        """Another E-tile crossbar size tiles again; the memo keeps both."""
        from repro.core.config import ReGraphXConfig
        from repro.reram.tile import e_tile_spec

        tile = e_tile_spec()
        wide_ima = replace(tile.ima, crossbar_size=16)
        wide = ReGraphXConfig(e_tile=replace(tile, ima=wide_ima))
        sweep = [Scenario(dataset="ppi", scale=0.005, tiers=t) for t in (2, 3)]
        memo = GraphMemo()
        for base in (None, wide, None):
            for scenario in sweep:
                evaluate_scenario(scenario, base, graphs=memo)
        assert tilings == {"first_batch": 2, "block_tile_adjacency": 2}

    def test_architecture_sweep_builds_once(self, builds):
        spec = get_preset("nocscale")
        tiny = replace(spec, base=replace(spec.base, scale=0.005))
        result = run_campaign(tiny)
        assert result.misses == len(tiny) > 1
        assert builds == {"load_dataset": 1, "partition_graph": 1}

    def test_one_build_per_seed(self, builds):
        spec = CampaignSpec(
            name="seeds",
            base=Scenario(dataset="ppi", scale=0.005),
            axes=(("seed", (0, 1, 2)), ("tiers", (2, 3))),
        )
        run_campaign(spec)
        assert builds == {"load_dataset": 3, "partition_graph": 3}

    def test_no_state_outlives_a_call(self, builds):
        sweep = [
            Scenario(dataset="ppi", scale=0.005, tiers=2),
            Scenario(dataset="ppi", scale=0.005, tiers=3),
        ]
        run_scenarios(sweep)
        run_scenarios(sweep)
        assert builds == {"load_dataset": 2, "partition_graph": 2}
