"""Tests for campaign analysis over architecture records."""

import pytest

from repro.campaign.analysis import best_record, campaign_table, pareto_records
from repro.campaign.results import CampaignResult, ScenarioRecord
from repro.campaign.spec import Scenario


def make_record(label, time, energy, temp, feasible=True):
    scenario = Scenario(dataset="ppi", scale=0.05, label=label)
    return ScenarioRecord(
        label=label,
        key=label,
        scenario=scenario.describe(),
        epoch_seconds=time,
        epoch_energy_joules=energy,
        peak_celsius=temp,
        thermally_feasible=feasible,
        worst_compute_seconds=time / 2,
        worst_communication_seconds=time / 2,
        energy_per_input_joules=energy / 10,
        num_inputs=10,
        eval_seconds=0.0,
    )


class TestPareto:
    def test_dominated_record_removed(self):
        good = make_record("good", 1.0, 1.0, 50.0)
        bad = make_record("bad", 2.0, 2.0, 60.0)
        assert pareto_records([good, bad]) == [good]

    def test_tradeoffs_kept(self):
        a = make_record("fast-hot", 1.0, 2.0, 90.0)
        b = make_record("slow-cool", 2.0, 1.0, 60.0)
        assert pareto_records([a, b]) == [a, b]

    def test_exact_duplicates_all_survive(self):
        a = make_record("a", 1.0, 1.0, 50.0)
        b = make_record("b", 1.0, 1.0, 50.0)
        assert pareto_records([a, b]) == [a, b]

    def test_empty(self):
        assert pareto_records([]) == []


class TestBestRecord:
    def test_min_edp_among_feasible(self):
        hot = make_record("hot", 0.1, 0.1, 200.0, feasible=False)
        ok = make_record("ok", 1.0, 1.0, 50.0)
        worse = make_record("worse", 2.0, 2.0, 50.0)
        assert best_record([hot, ok, worse]).label == "ok"

    def test_all_infeasible_falls_back(self):
        hot = make_record("hot", 0.1, 0.1, 200.0, feasible=False)
        assert best_record([hot]).label == "hot"

    def test_other_metrics(self):
        a = make_record("a", 1.0, 4.0, 50.0)
        b = make_record("b", 2.0, 1.0, 50.0)
        assert best_record([a, b], metric="epoch_seconds").label == "a"
        assert best_record([a, b], metric="epoch_energy_joules").label == "b"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            best_record([])


class TestCampaignTable:
    def test_summary_counts_rendered(self):
        result = CampaignResult(
            name="demo",
            records=[make_record("a", 1.0, 1.0, 50.0)],
            hits=1,
            misses=0,
            elapsed_seconds=0.5,
        )
        text = campaign_table(result).render()
        assert "demo" in text
        assert "1 cached / 0 evaluated" in text
