"""Tests for the CLI entry point and the markdown report writer."""

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.report import PAPER_CLAIMS, write_report


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["experiments", "fig3"],
            ["evaluate", "ppi"],
            ["thermal"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_info_runs(self, capsys):
        main(["info"])
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out

    def test_experiments_subset(self, capsys):
        main(["experiments", "table1"])
        out = capsys.readouterr().out
        assert "128x128" in out

    def test_evaluate_runs(self, capsys):
        main(["evaluate", "ppi", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "epoch time" in out

    def test_thermal_runs(self, capsys):
        main(["thermal"])
        out = capsys.readouterr().out
        assert "per-tier temp" in out
        assert "feasible" in out

    def test_thermal_knobs(self, capsys):
        main(["thermal", "--tiers", "4", "--ambient", "30",
              "--layer-resistance", "0.1"])
        out = capsys.readouterr().out
        # Four tiers reported, and the milder thermals keep the stack cool.
        line = next(l for l in out.splitlines() if "per-tier temp" in l)
        assert line.count(",") == 3
        assert "feasible" in out

    def test_thermal_tiers_change_the_outcome(self, capsys):
        main(["thermal"])
        base = capsys.readouterr().out
        main(["thermal", "--tiers", "5"])
        tall = capsys.readouterr().out
        assert base != tall

    def test_sweep_prune(self, capsys, tmp_path):
        from repro.campaign.store import ResultStore

        store = ResultStore(tmp_path)
        for i in range(3):
            store.put(f"{i:02d}" + "b" * 62, {"i": i})
        main(["sweep", "--cache", str(tmp_path), "--prune", "1"])
        out = capsys.readouterr().out
        assert "pruned 2 of 3" in out
        assert len(store) == 1

    def test_sweep_prune_rejects_negative(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--cache", str(tmp_path), "--prune", "-1"])
        assert excinfo.value.code == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err

    def test_sweep_round_trip(self, capsys, tmp_path, monkeypatch):
        from repro.campaign import presets
        from repro.campaign.spec import CampaignSpec, Scenario

        monkeypatch.setitem(presets.PRESETS, "tiny", CampaignSpec(
            name="tiny",
            base=Scenario(dataset="ppi", scale=0.01),
            axes=(("tiers", (2, 3)),),
        ))
        argv = ["sweep", "--preset", "tiny", "--out", str(tmp_path / "out"),
                "--cache", str(tmp_path / "cache")]
        main(argv)
        cold = capsys.readouterr().out
        assert (tmp_path / "out" / "tiny.json").is_file()
        assert (tmp_path / "out" / "tiny.csv").is_file()
        assert "[0/2] ppi-2t-mc-s0  (running)" in cold
        assert "[2/2] ppi-3t-mc-s0  (" in cold
        assert "pareto front (" in cold
        assert "2 computed, 0 cached" in cold
        main(argv)
        warm = capsys.readouterr().out
        assert "[1/2] ppi-2t-mc-s0  (cache hit)" in warm
        assert "pareto front (" in warm
        assert "0 computed, 2 cached" in warm

    @pytest.mark.parametrize("preset", ["seeds", "annealer"])
    def test_sweep_rejects_seed_on_seed_axis(self, preset, tmp_path):
        with pytest.raises(
            SystemExit, match=f"sweep: preset '{preset}' sweeps seed; drop --seed"
        ):
            main(["--seed", "5", "sweep", "--preset", preset,
                  "--cache", str(tmp_path)])

    def test_serve_campaign_rejects_seed_on_seed_axis(self, tmp_path, monkeypatch):
        from repro.campaign.spec import CampaignSpec
        from repro.serve import presets
        from repro.serve.scenario import ServingScenario

        monkeypatch.setitem(presets.SERVING_PRESETS, "replicas", CampaignSpec(
            name="replicas", base=ServingScenario(), axes=(("seed", (0, 1)),),
        ))
        with pytest.raises(
            SystemExit, match="serve: preset 'replicas' sweeps seed; drop --seed"
        ):
            main(["--seed", "5", "serve", "--preset", "replicas", "--campaign",
                  "--cache", str(tmp_path)])

    def test_serve_parser(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--preset", "serving", "--qps", "100", "--instances", "2"]
        )
        assert args.command == "serve"
        assert args.qps == 100.0
        assert args.instances == 2

    def test_serve_campaign_rejects_plan_capacity(self):
        with pytest.raises(SystemExit, match="single-point"):
            main(["serve", "--preset", "serving", "--campaign",
                  "--plan-capacity"])

    def test_serve_list_presets(self, capsys):
        main(["serve", "--list-presets"])
        out = capsys.readouterr().out
        assert "serving" in out
        assert "arrivals" in out
        assert "policies" in out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "cora"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReport:
    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "report.md", seed=0, fig5_epochs=3)
        text = path.read_text()
        for section in ("Fig. 3", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8"):
            assert section in text
        for claim in PAPER_CLAIMS.values():
            assert claim in text
        assert "speedup" in text
