"""Tests for the experiment drivers (paper tables and figures).

These run at reduced scales but assert the *shapes* the paper reports.
"""

import pytest

from repro.experiments.common import ExperimentTable
from repro.experiments.fig3_zeros import run_fig3
from repro.experiments.fig5_accuracy import run_fig5
from repro.experiments.fig6_batch import run_fig6
from repro.experiments.fig7_noc import run_fig7
from repro.experiments.fig8_fullsystem import run_fig8
from repro.experiments.tables import table1_parameters, table2_datasets

TINY_SCALES = {"ppi": 0.05, "reddit": 0.01, "amazon2m": 0.002}


class TestExperimentTable:
    def test_render(self):
        t = ExperimentTable("T", ["a", "b"])
        t.add_row(1, 2.5)
        text = t.render()
        assert "T" in text and "a" in text and "2.5" in text

    def test_row_width_checked(self):
        t = ExperimentTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_empty(self):
        assert "T" in ExperimentTable("T", ["a"]).render()


class TestTables:
    def test_table1_contains_parameters(self):
        text = table1_parameters().render()
        assert "128x128" in text
        assert "8x8" in text

    def test_table2_contains_paper_stats(self):
        text = table2_datasets().render()
        assert "232965" in text
        assert "61859140" in text

    def test_table2_with_generation_check(self):
        table = table2_datasets(check_scale=0.005)
        assert len(table.columns) == 8


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(scales=TINY_SCALES, seed=0)

    def test_large_blocks_store_more_zeros_everywhere(self, result):
        for name in ("ppi", "reddit", "amazon2m"):
            assert result.ratio(name) > 1.0

    def test_table_renders(self, result):
        assert "Fig. 3" in result.table().render()


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(
            scale=0.008,
            num_partitions=20,
            betas=(1, 5, 10),
            num_epochs=10,
            hidden_dim=16,
        )

    def test_all_betas_trained(self, result):
        assert set(result.histories) == {1, 5, 10}
        for history in result.histories.values():
            assert len(history.epochs) == 10

    def test_accuracy_above_chance(self, result):
        # 41 classes -> chance ~2.4%.
        for beta in (5, 10):
            assert result.final_accuracy(beta) > 0.3

    def test_table_renders(self, result):
        assert "Fig. 5" in result.table().render()

    def test_beta_must_divide_partitions(self):
        with pytest.raises(ValueError, match="divide"):
            run_fig5(num_partitions=10, betas=(3,), num_epochs=1)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(dataset="reddit", scale=0.01, betas=(1, 5, 10))

    def test_training_time_drops_from_beta1(self, result):
        """Paper Fig. 6: larger beta trains faster (diminishing returns)."""
        times = result.normalized_training_time()
        assert times[0] == 1.0
        assert times[1] < 0.7
        assert times[2] < 0.7

    def test_epe_demand_grows(self, result):
        demand = result.normalized_epe_demand()
        assert demand[0] == 1.0
        assert demand[1] > 1.0
        assert demand[2] > demand[1]

    def test_numinput_inverse_in_beta(self, result):
        assert [p.num_inputs for p in result.points] == [1500, 300, 150]

    def test_betas_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            run_fig6(betas=(5, 1))

    def test_table_renders(self, result):
        assert "Fig. 6" in result.table().render()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(seed=0)

    def test_communication_dominates_computation(self, result):
        """Paper: comm delay always exceeds comp delay (with multicast)."""
        for point in result.points.values():
            assert point.communication_multicast > point.computation

    def test_unicast_worse_than_multicast(self, result):
        """Paper: unicast ~57% worse on average; we assert 20-120%."""
        for point in result.points.values():
            assert point.unicast_penalty > 1.0
        assert 1.2 < result.mean_unicast_penalty < 2.2

    def test_table_renders(self, result):
        text = result.table().render()
        assert "comm-U" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(seed=0)

    def test_regraphx_wins_everywhere(self, result):
        for cmp in result.comparisons.values():
            assert cmp.speedup > 1.0
            assert cmp.energy_ratio > 1.0
            assert cmp.edp_improvement > 1.0

    def test_headline_numbers_in_paper_band(self, result):
        """Paper: ~3X speedup (up to 3.5X), up to ~11X energy, ~34X EDP."""
        assert 2.0 < result.mean_speedup < 4.5
        assert result.max_speedup < 5.0
        assert 5.0 < result.mean_energy_ratio < 16.0
        assert 15.0 < result.mean_edp_improvement < 60.0

    def test_table_renders(self, result):
        assert "speedup" in result.table().render()


class TestRunner:
    def test_selected_subset(self):
        from repro.experiments.runner import run

        out = run(["table1"])
        assert "table1" in out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import run

        with pytest.raises(ValueError, match="unknown"):
            run(["fig99"])

    def test_registry_covers_all_experiments(self):
        from repro.experiments.runner import ALL_EXPERIMENTS, EXPERIMENTS

        assert tuple(EXPERIMENTS) == ALL_EXPERIMENTS
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table2", "fig3", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12",
        }
        assert all(callable(fn) for fn in EXPERIMENTS.values())

    def test_run_dispatches_through_registry_with_seed(self):
        from repro.experiments import runner

        runner.EXPERIMENTS["fake"] = lambda seed: f"fake-table seed={seed}"
        try:
            out = runner.run(["fake"], seed=7)
        finally:
            del runner.EXPERIMENTS["fake"]
        assert "seed=7" in out["fake"]

    def test_parallel_matches_serial(self):
        from repro.experiments.runner import run

        serial = run(["table1", "table2"], jobs=1)
        parallel = run(["table1", "table2"], jobs=2)
        # Same tables in the same order (timing suffix differs).
        assert list(serial) == list(parallel) == ["table1", "table2"]
        strip = lambda text: text.rsplit("\n[", 1)[0]
        assert {k: strip(v) for k, v in serial.items()} == {
            k: strip(v) for k, v in parallel.items()
        }

    def test_main_parses_seed_and_names(self, capsys):
        from repro.__main__ import main

        main(["--seed", "3", "experiments", "table1"])
        out = capsys.readouterr().out
        assert "128x128" in out

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_nonpositive_jobs_rejected(self, jobs):
        from repro.experiments.runner import run

        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run(["table1"], jobs=jobs)
