"""Design-space exploration through the campaign engine.

Tier and mesh sweeps are lists of labelled :class:`Scenario` points run
by :func:`run_scenarios`; Pareto fronts are taken over the resulting
:class:`ScenarioRecord` rows.
"""

import pytest

from repro.campaign.analysis import pareto_records
from repro.campaign.executor import run_scenarios
from repro.campaign.results import ScenarioRecord
from repro.campaign.spec import CampaignSpec, Scenario


def make_point(label, time, energy, temp):
    return ScenarioRecord(
        label=label,
        key=label,
        scenario=Scenario(label=label).describe(),
        epoch_seconds=time,
        epoch_energy_joules=energy,
        peak_celsius=temp,
        thermally_feasible=temp < 105,
        worst_compute_seconds=time / 2,
        worst_communication_seconds=time / 2,
        energy_per_input_joules=energy / 10,
        num_inputs=10,
        eval_seconds=0.0,
    )


def tier_sweep(tier_counts, store=None):
    scenarios = [
        Scenario(dataset="ppi", scale=0.05, seed=0, tiers=t, label=f"{t}-tier")
        for t in tier_counts
    ]
    return scenarios, run_scenarios(scenarios, store=store).records


class TestParetoFront:
    def test_dominated_point_removed(self):
        a = make_point("good", 1.0, 1.0, 50.0)
        b = make_point("bad", 2.0, 2.0, 60.0)
        assert pareto_records([a, b]) == [a]

    def test_tradeoff_points_kept(self):
        a = make_point("fast-hot", 1.0, 2.0, 90.0)
        b = make_point("slow-cool", 2.0, 1.0, 60.0)
        assert set(p.label for p in pareto_records([a, b])) == {
            "fast-hot", "slow-cool",
        }

    def test_identical_points_both_kept(self):
        a = make_point("a", 1.0, 1.0, 50.0)
        b = make_point("b", 1.0, 1.0, 50.0)
        assert len(pareto_records([a, b])) == 2

    def test_tie_on_two_axes_still_dominates(self):
        """Equal on time+energy but strictly cooler -> dominates."""
        cooler = make_point("cooler", 1.0, 1.0, 50.0)
        hotter = make_point("hotter", 1.0, 1.0, 60.0)
        assert pareto_records([cooler, hotter]) == [cooler]

    def test_many_duplicates_with_one_dominated(self):
        dup1 = make_point("dup1", 1.0, 1.0, 50.0)
        dup2 = make_point("dup2", 1.0, 1.0, 50.0)
        dup3 = make_point("dup3", 1.0, 1.0, 50.0)
        bad = make_point("bad", 2.0, 1.0, 50.0)
        front = pareto_records([dup1, bad, dup2, dup3])
        assert front == [dup1, dup2, dup3]

    def test_single_point_front(self):
        a = make_point("only", 3.0, 4.0, 70.0)
        assert pareto_records([a]) == [a]

    def test_empty(self):
        assert pareto_records([]) == []

    def test_edp_property(self):
        point = make_point("x", 2.0, 3.0, 50.0)
        assert point.edp == pytest.approx(6.0)
        assert point.metrics()["edp"] == point.edp


class TestTierSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return tier_sweep([2, 3, 5])

    def test_one_point_per_tier_count(self, sweep):
        _, points = sweep
        assert [p.label for p in points] == ["2-tier", "3-tier", "5-tier"]

    def test_more_tiers_hotter(self, sweep):
        _, points = sweep
        temps = [p.peak_celsius for p in points]
        assert temps == sorted(temps)

    def test_more_tiers_more_e_capacity(self, sweep):
        scenarios, _ = sweep
        capacities = [s.to_config().num_e_crossbars for s in scenarios]
        assert capacities == sorted(capacities)
        assert capacities[0] < capacities[-1]

    def test_paper_design_point_feasible(self, sweep):
        _, points = sweep
        three_tier = points[1]
        assert three_tier.thermally_feasible

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec(name="tiers", axes=(("tiers", ()),))
        with pytest.raises(ValueError, match="at least 2 tiers"):
            Scenario(tiers=1)
        with pytest.raises(ValueError, match="at least 2 tiers"):
            CampaignSpec(name="tiers", axes=(("tiers", (1,)),)).scenarios()


class TestMeshSweep:
    def test_mesh_sweep_runs(self):
        points = run_scenarios(
            [Scenario(dataset="ppi", scale=0.05, seed=0, mesh_width=8,
                      label="8x8")]
        ).records
        assert len(points) == 1
        assert points[0].label == "8x8"
        assert points[0].epoch_seconds > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec(name="mesh", axes=(("mesh_width", ()),))


class TestSweepsThroughCampaignEngine:
    def test_tier_sweep_uses_result_store(self, tmp_path):
        """Sweeps ride the campaign cache: a repeat sweep re-evaluates nothing."""
        from repro.campaign.store import ResultStore

        store = ResultStore(tmp_path)
        scenarios, first = tier_sweep([2, 3], store=store)
        assert len(store) == 2
        import repro.campaign.executor as executor

        original = executor.evaluate_scenario
        executor.evaluate_scenario = lambda *a, **k: (_ for _ in ()).throw(
            AssertionError("expected pure cache hits")
        )
        try:
            _, second = tier_sweep([2, 3], store=store)
        finally:
            executor.evaluate_scenario = original
        assert [p.label for p in second] == [p.label for p in first]
        assert [p.epoch_seconds for p in second] == [p.epoch_seconds for p in first]
        assert [p.peak_celsius for p in second] == [p.peak_celsius for p in first]
        assert [
            Scenario.from_dict(p.scenario).to_config() for p in second
        ] == [s.to_config() for s in scenarios]
