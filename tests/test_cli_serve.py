"""Tests for ``python -m repro serve`` argument handling.

The serve subcommand grew a lot of surface (presets, campaigns, capacity
planning, autoscaling, admission, trace replay); these tests pin the
error paths — conflicting flags, unknown presets, broken trace files —
and the happy paths for the closed-loop flags, all through ``main()``
exactly as the shell would invoke them.
"""

import pytest

from repro.__main__ import build_parser, main
from repro.serve.arrivals import Request, save_trace

FAST = ["--qps", "30", "--duration", "0.3", "--instances", "1", "--no-cache"]


def run_cli(argv, capsys):
    main(["serve", *argv])
    return capsys.readouterr().out


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.autoscale is None
        assert args.admission is None
        assert args.trace_file is None
        assert args.max_instances is None  # presets keep their own ceiling

    def test_autoscale_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--autoscale", "magic"])

    def test_admission_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--admission", "polite"])

    def test_negative_instances_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--instances", "0"])


class TestConflictsAndErrors:
    def test_unknown_preset_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown serving preset"):
            main(["serve", "--preset", "nope", "--no-cache"])

    def test_unknown_preset_in_campaign_mode(self):
        with pytest.raises(SystemExit, match="unknown serving preset"):
            main(["serve", "--campaign", "--preset", "nope", "--no-cache"])

    def test_campaign_requires_a_preset(self):
        with pytest.raises(SystemExit, match="--campaign needs --preset"):
            main(["serve", "--campaign", "--no-cache"])

    def test_campaign_conflicts_with_plan_capacity(self):
        with pytest.raises(SystemExit, match="single-point"):
            main([
                "serve", "--campaign", "--preset", "serving",
                "--plan-capacity", "--no-cache",
            ])

    def test_campaign_conflicts_with_trace_file(self):
        with pytest.raises(SystemExit, match="drop --campaign"):
            main([
                "serve", "--campaign", "--preset", "serving",
                "--trace-file", "whatever.csv", "--no-cache",
            ])

    def test_trace_file_conflicts_with_arrival(self):
        with pytest.raises(SystemExit, match="drop --arrival"):
            main([
                "serve", "--trace-file", "whatever.csv",
                "--arrival", "poisson", "--no-cache",
            ])

    def test_missing_trace_file(self, tmp_path):
        with pytest.raises(SystemExit, match="trace file not found"):
            main([
                "serve", "--trace-file", str(tmp_path / "missing.csv"),
                "--no-cache",
            ])

    def test_malformed_trace_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("request_id,tenant,graph_size,arrival_time\n"
                       "0,alice,not-a-number,0.1\n")
        with pytest.raises(SystemExit, match="cannot parse trace"):
            main(["serve", "--trace-file", str(bad), "--no-cache"])

    def test_empty_trace_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("request_id,tenant,graph_size,arrival_time\n")
        with pytest.raises(SystemExit, match="cannot parse trace"):
            main(["serve", "--trace-file", str(empty), "--no-cache"])

    def test_trace_sample_needs_trace_out(self):
        with pytest.raises(SystemExit, match="needs --trace-out"):
            main(["serve", *FAST, "--trace-sample", "slo"])

    def test_telemetry_exports_conflict_with_campaign(self):
        with pytest.raises(SystemExit, match="one simulation"):
            main([
                "serve", "--campaign", "--preset", "serving",
                "--trace-out", "t.jsonl", "--no-cache",
            ])
        with pytest.raises(SystemExit, match="one simulation"):
            main([
                "serve", "--campaign", "--preset", "serving",
                "--metrics-out", "m.jsonl", "--no-cache",
            ])

    def test_bad_trace_sample_mode_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="serve:"):
            main([
                "serve", *FAST, "--trace-out", str(tmp_path / "t.jsonl"),
                "--trace-sample", "sometimes",
            ])

    def test_bad_scenario_override_is_a_clean_error(self):
        # Valid argparse input, invalid scenario: caught, not a traceback.
        with pytest.raises(SystemExit, match="serve:"):
            main(["serve", "--qps", "-5", "--no-cache"])

    def test_bad_override_in_campaign_mode_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="serve: queue_budget"):
            main([
                "serve", "--campaign", "--preset", "serving",
                "--queue-budget", "-1", "--no-cache",
            ])


class TestSinglePoint:
    def test_reports_slo_analytics(self, capsys):
        out = run_cli(FAST, capsys)
        assert "p99" in out
        assert "violation rate" in out
        assert "per-tenant" in out

    def test_autoscale_flags_reach_the_engine(self, capsys):
        out = run_cli([
            *FAST, "--qps", "120", "--arrival", "mmpp",
            "--autoscale", "target-util", "--autoscale-target", "0.7",
            "--max-instances", "4", "--warmup-ms", "10",
        ], capsys)
        assert "fleet[target-util]" in out
        assert "instance-seconds" in out
        assert "as-target-util" in out   # label reflects the knob

    def test_admission_flags_reach_the_engine(self, capsys):
        out = run_cli([
            *FAST, "--qps", "400", "--admission", "shed",
            "--queue-budget", "8",
        ], capsys)
        assert "admission[shed]" in out
        assert "shed" in out

    def test_autoscale_with_preset_keeps_the_preset_band(self, capsys):
        out = run_cli([
            "--preset", "autoscale", "--autoscale", "target-util",
            "--duration", "0.3", "--no-cache",
        ], capsys)
        # The autoscale preset's hand-tuned band [1, 6] and initial
        # fleet of 2 must survive enabling the flag.
        assert "in [1, 6]" in out
        assert "2 instance(s)" in out

    def test_quota_and_tarpit_flags(self, capsys):
        out = run_cli([
            *FAST, "--qps", "200", "--admission", "tarpit",
            "--queue-budget", "8", "--quota-qps", "20",
            "--tarpit-ms", "15",
        ], capsys)
        assert "admission[tarpit]" in out

    def test_telemetry_exports_both_files(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        out = run_cli(
            [*FAST, "--trace-out", str(trace), "--metrics-out", str(metrics)],
            capsys,
        )
        assert "trace spans" in out and "metrics" in out
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        rows = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert spans and rows  # every line parses: valid JSONL
        assert spans[0]["kind"] == "arrive"
        assert {"sample", "counter", "gauge", "histogram"} <= {
            r["kind"] for r in rows
        }

    def test_trace_sample_mode_bounds_the_trace(self, tmp_path, capsys):
        import json

        full = tmp_path / "full.jsonl"
        head = tmp_path / "head.jsonl"
        run_cli([*FAST, "--trace-out", str(full)], capsys)
        run_cli(
            [*FAST, "--trace-out", str(head), "--trace-sample", "head:3"],
            capsys,
        )
        full_ids = {
            json.loads(line).get("request_id")
            for line in full.read_text().splitlines()
        } - {None}
        head_ids = {
            json.loads(line).get("request_id")
            for line in head.read_text().splitlines()
        } - {None}
        assert len(head_ids) == 3
        assert head_ids < full_ids

    def test_trace_replay_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        save_trace(
            [
                Request(tenant=f"t{i % 2}", graph_size=256,
                        arrival_time=0.01 * i, request_id=i)
                for i in range(1, 30)
            ],
            trace,
        )
        out = run_cli(
            ["--trace-file", str(trace), "--duration", "0.3",
             "--instances", "1", "--no-cache"],
            capsys,
        )
        assert "trace" in out
        assert "p99" in out

    def test_trace_with_repeated_ids_is_a_clean_error(self, tmp_path):
        trace = tmp_path / "trace.csv"
        save_trace(
            [
                Request(tenant="t0", graph_size=256, arrival_time=0.01 * i,
                        request_id=i % 5)
                for i in range(1, 30)
            ],
            trace,
        )
        with pytest.raises(SystemExit, match="cannot parse trace.*duplicate"):
            main(["serve", "--trace-file", str(trace), "--hedge-ms", "2",
                  "--no-cache"])
