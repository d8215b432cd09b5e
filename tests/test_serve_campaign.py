"""Tests for serving scenarios, keys, campaigns, presets, and the QPS sweep."""

import pytest

from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore
from repro.serve.faults import FaultSpec
from repro.serve.fleet import FleetSpec
from repro.serve.presets import (
    SERVING_PRESETS,
    get_serving_preset,
    serving_preset_names,
)
from repro.serve.scenario import (
    ServingRecord,
    ServingScenario,
    run_serving_scenario,
    scenario_with,
    serving_key,
)
from repro.serve.retry import RetryPolicy
from repro.serve.service import LinearServiceModel
from repro.serve.sweep import run_serving_campaign, serving_table

FAST = ServingScenario(qps=50.0, duration_seconds=0.3, instances=1, seed=0)


class TestServingScenario:
    def test_auto_label_reflects_knobs(self):
        label = ServingScenario(qps=100.0, max_batch=4, instances=3).auto_label()
        assert label == "poisson-q100-b4-i3-s0"

    def test_describe_round_trips(self):
        scenario = ServingScenario(arrival="mmpp", qps=75.0, policy="wfq")
        assert ServingScenario.from_dict(scenario.describe()) == scenario_with(
            scenario
        )

    def test_scenario_with_relabels(self):
        changed = scenario_with(FAST, qps=200.0)
        assert changed.qps == 200.0
        assert "q200" in changed.display_label

    def test_diurnal_day_is_compressed_to_the_window(self):
        scenario = scenario_with(
            FAST, arrival="diurnal", qps=300.0, duration_seconds=2.0
        )
        process = scenario.build_arrivals()
        assert process.period_seconds == 2.0
        # One full sine cycle fits the window: the first half-period (the
        # peak) must carry visibly more traffic than the second (trough).
        stream = process.generate(2.0)
        peak = sum(1 for r in stream if r.arrival_time < 1.0)
        assert peak > 1.3 * (len(stream) - peak)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"instances": 3, "faults": "mtbf=0.5", "retry": "deadline"},
            {"fleet": "small:2,large:1", "faults": "default", "seed": 5,
             "retry": "backoff", "retry_max_attempts": 4},
            {"faults": "zones=2", "retry": "backoff", "retry_max_attempts": 1},
        ],
    )
    def test_build_engine_hands_over_parsed_specs(self, overrides):
        scenario = scenario_with(FAST, **overrides)
        engine = scenario.build_engine(
            LinearServiceModel(base_seconds=0.002, per_node_seconds=1e-6)
        )
        assert engine.fleet_spec == (
            FleetSpec.parse(scenario.fleet)
            if scenario.fleet
            else FleetSpec.homogeneous("default", scenario.instances)
        )
        # A spec with every process disabled normalizes to no faults.
        assert engine.faults == (
            FaultSpec.parse(scenario.faults) if scenario.faults else None
        )
        retry = RetryPolicy(
            mode=scenario.retry,
            max_attempts=scenario.retry_max_attempts,
            seed=scenario.seed,
        )
        assert engine.retry_policy == (retry if retry.enabled else None)
        assert engine.seed == scenario.seed

    def test_validation(self):
        for kwargs in (
            {"arrival": "uniform"},
            {"qps": 0.0},
            {"duration_seconds": 0.0},
            {"num_tenants": 0},
            {"max_batch": 0},
            {"max_wait_seconds": -1.0},
            {"policy": "lifo"},
            {"instances": 0},
            {"slo_seconds": 0.0},
            {"scale": 0.0},
        ):
            with pytest.raises(ValueError):
                ServingScenario(**kwargs)


class TestServingKey:
    def test_deterministic_and_label_blind(self):
        a = ServingScenario(qps=100.0)
        b = ServingScenario(qps=100.0, label="pretty-name")
        assert serving_key(a) == serving_key(b)

    def test_every_knob_changes_the_key(self):
        base = ServingScenario()
        for override in (
            {"dataset": "reddit", "scale": 0.02},
            {"arrival": "mmpp"},
            {"qps": 123.0},
            {"duration_seconds": 3.0},
            {"num_tenants": 5},
            {"max_batch": 3},
            {"max_wait_seconds": 0.009},
            {"policy": "wfq"},
            {"instances": 7},
            {"slo_seconds": 0.08},
            {"seed": 11},
        ):
            assert serving_key(base) != serving_key(scenario_with(base, **override))

    def test_distinct_from_architecture_keys(self):
        from repro.campaign.store import scenario_key

        assert serving_key(ServingScenario()) != scenario_key(Scenario())


class TestGenericCampaignSpec:
    def test_axes_validate_against_serving_fields(self):
        spec = CampaignSpec(
            name="load",
            base=FAST,
            axes=(("qps", (25.0, 50.0)), ("max_batch", (1, 8))),
        )
        scenarios = spec.scenarios()
        assert len(scenarios) == 4
        assert all(isinstance(s, ServingScenario) for s in scenarios)
        labels = [s.display_label for s in scenarios]
        assert len(set(labels)) == 4

    def test_unknown_axis_mentions_serving_fields(self):
        with pytest.raises(ValueError, match="tiers"):
            CampaignSpec(name="bad", base=FAST, axes=(("tiers", (2, 3)),))

    def test_architecture_axes_still_work(self):
        spec = CampaignSpec(
            name="arch", base=Scenario(), axes=(("tiers", (2, 3)),)
        )
        assert len(spec.scenarios()) == 2


class TestRunServingCampaign:
    def spec(self):
        return CampaignSpec(
            name="mini",
            base=FAST,
            axes=(("qps", (25.0, 100.0)), ("instances", (1, 2))),
        )

    def test_runs_in_scenario_order(self, tmp_path):
        result = run_serving_campaign(self.spec(), store=ResultStore(tmp_path))
        assert len(result) == 4
        assert [r.scenario["qps"] for r in result.records] == [
            25.0, 25.0, 100.0, 100.0,
        ]
        assert result.misses == 4 and result.hits == 0

    def test_second_run_is_all_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_serving_campaign(self.spec(), store=store)
        second = run_serving_campaign(self.spec(), store=store)
        assert second.hits == 4 and second.misses == 0
        assert all(r.cached for r in second.records)
        assert [r.metrics() for r in first.records] == [
            r.metrics() for r in second.records
        ]

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_serving_campaign(self.spec(), jobs=1)
        parallel = run_serving_campaign(self.spec(), jobs=2)
        assert [r.metrics() for r in serial.records] == [
            r.metrics() for r in parallel.records
        ]

    def test_exports(self, tmp_path):
        result = run_serving_campaign(self.spec())
        json_path = result.to_json(tmp_path / "mini.json")
        csv_path = result.to_csv(tmp_path / "mini.csv")
        assert json_path.is_file() and csv_path.is_file()
        header = csv_path.read_text().splitlines()[0]
        assert "p99_latency_seconds" in header
        assert "qps" in header
        table = serving_table(result).render()
        assert "p99 ms" in table

    def test_rejects_architecture_specs(self):
        arch = CampaignSpec(name="arch", base=Scenario(), axes=(("tiers", (2,)),))
        with pytest.raises(TypeError, match="ServingScenario"):
            run_serving_campaign(arch)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_serving_campaign(self.spec(), jobs=0)


class TestRunServingScenario:
    def test_record_persists_and_reloads(self, tmp_path):
        store = ResultStore(tmp_path)
        fresh = run_serving_scenario(FAST, store=store)
        cached = run_serving_scenario(FAST, store=store)
        assert not fresh.cached and cached.cached
        assert fresh.metrics() == cached.metrics()
        assert isinstance(cached, ServingRecord)

    def test_custom_service_model_bypasses_the_store(self, tmp_path):
        from repro.serve.service import LinearServiceModel

        store = ResultStore(tmp_path)
        run_serving_scenario(FAST, service=LinearServiceModel(), store=store)
        assert len(store) == 0


class TestPresets:
    def test_registry(self):
        assert "serving" in serving_preset_names()
        assert set(serving_preset_names()) == set(SERVING_PRESETS)

    def test_serving_preset_shape(self):
        spec = get_serving_preset("serving")
        assert len(spec) == 12
        axes = dict(spec.axes)
        assert set(axes) == {"qps", "max_batch", "instances"}

    def test_all_presets_enumerate(self):
        for name in serving_preset_names():
            scenarios = get_serving_preset(name).scenarios()
            assert scenarios
            assert all(isinstance(s, ServingScenario) for s in scenarios)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown serving preset"):
            get_serving_preset("nope")


class TestSweepServingQps:
    def spec(self, qps_values):
        return CampaignSpec(
            name="qps",
            base=ServingScenario(duration_seconds=0.3, instances=1),
            axes=(("qps", tuple(qps_values)),),
        )

    def test_records_in_rate_order(self):
        records = run_serving_campaign(self.spec([25.0, 50.0])).records
        assert [r.scenario["qps"] for r in records] == [25.0, 50.0]
        assert all(r.p50_latency_seconds > 0 for r in records)

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            self.spec([])
        with pytest.raises(ValueError, match="positive"):
            self.spec([-5.0]).scenarios()
