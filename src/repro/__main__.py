"""Command-line interface: ``python -m repro <command>``.

Commands::

    info                     print the architecture (Table I) and dataset
                             (Table II) summaries
    experiments [names...]   regenerate paper tables/figures (default all)
    evaluate DATASET         evaluate one dataset end to end vs the GPU
    thermal                  tier-count thermal feasibility study
    sweep --preset NAME      run a declarative scenario campaign (parallel
                             with --jobs, cached under .repro_cache/)
    serve                    simulate multi-tenant inference serving:
                             single point with per-tenant SLO analytics,
                             --campaign for a preset cross-product,
                             --plan-capacity for the minimum static fleet,
                             --autoscale/--admission to close the loop,
                             --trace-file to replay a recorded stream,
                             --trace-out/--metrics-out/--trace-sample to
                             export request traces and metrics as JSONL
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.campaign.analysis import campaign_table, pareto_records
from repro.campaign.executor import run_campaign
from repro.campaign.presets import get_preset, preset_names
from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import DEFAULT_ROOT, ResultStore
from repro.core import (
    ReGraphX,
    ThermalModel,
    ThermalSpec,
    compare_with_gpu,
    tier_powers_from_report,
)
from repro.experiments.common import DEFAULT_SCALES
from repro.experiments.runner import ALL_EXPERIMENTS
from repro.experiments.runner import run as run_experiments
from repro.experiments.tables import table1_parameters, table2_datasets
from repro.graph.datasets import dataset_names
from repro.utils.units import format_seconds


def cmd_info(_: argparse.Namespace) -> None:
    print(table1_parameters().render())
    print()
    print(table2_datasets().render())


def cmd_experiments(args: argparse.Namespace) -> None:
    names = args.names or None
    try:
        results = run_experiments(names, seed=args.seed or 0, jobs=args.jobs)
    except ValueError as error:
        raise SystemExit(f"experiments: {error}")
    for _, text in results.items():
        print()
        print(text)


def cmd_sweep(args: argparse.Namespace) -> None:
    if args.list_presets:
        for name in preset_names():
            spec = get_preset(name)
            print(f"{spec.summary()}")
            if spec.description:
                print(f"    {spec.description}")
        return
    if args.prune is not None:
        store = ResultStore(args.cache)
        before = store.size_report()
        removed = store.prune(args.prune)
        after = store.size_report()
        print(
            f"pruned {removed} of {before['entries']} records "
            f"({before['total_bytes']} -> {after['total_bytes']} bytes) "
            f"under {store.root}/"
        )
        return
    if not args.preset:
        raise SystemExit("sweep: --preset NAME required (see --list-presets)")
    spec = get_preset(args.preset)
    if args.seed is not None:
        spec = replace(spec, base=replace(spec.base, seed=args.seed))
    _run_campaign_command("sweep", spec, args, run_campaign, _sweep_report)


def _sweep_report(result: CampaignResult) -> str:
    front = pareto_records(result.records)
    return (
        f"{campaign_table(result).render()}\n\n"
        f"pareto front ({len(front)}/{len(result)}): "
        + ", ".join(r.label for r in front)
    )


def _run_campaign_command(
    command: str,
    spec: CampaignSpec,
    args: argparse.Namespace,
    run: Callable[..., CampaignResult],
    report: Callable[[CampaignResult], str],
) -> None:
    """Run ``spec`` with streamed progress, export it, print the summary."""
    if args.seed is not None and "seed" in dict(spec.axes):
        raise SystemExit(
            f"{command}: preset {spec.name!r} sweeps seed; drop --seed"
        )
    store = None if args.no_cache else ResultStore(args.cache)
    print(f"campaign {spec.summary()}  (jobs={args.jobs})")
    result = run(
        spec,
        jobs=args.jobs,
        store=store,
        on_event=lambda event: print(event.render()),
    )
    out = Path(args.out)
    json_path = result.to_json(out / f"{spec.name}.json")
    csv_path = result.to_csv(out / f"{spec.name}.csv")
    print()
    print(report(result))
    print(f"wrote {json_path} and {csv_path}")
    print(
        f"{result.misses} computed, {result.hits} cached, "
        f"{result.elapsed_seconds:.1f}s wall"
    )


def cmd_evaluate(args: argparse.Namespace) -> None:
    accelerator = ReGraphX()
    scale = args.scale or DEFAULT_SCALES[args.dataset]
    print(f"building {args.dataset} workload at scale {scale} ...")
    workload = accelerator.build_workload(
        args.dataset, scale=scale, seed=args.seed or 0
    )
    report = accelerator.evaluate(workload, multicast=not args.unicast)
    comparison = compare_with_gpu(report)
    print(f"worst-stage computation:   {format_seconds(report.worst_compute)}")
    print(f"worst-stage communication: {format_seconds(report.worst_communication)}")
    print(f"epoch time:   {format_seconds(report.epoch_seconds)}")
    print(f"epoch energy: {report.epoch_energy:.2f} J")
    print(f"vs GPU: speedup {comparison.speedup:.2f}x, "
          f"energy {comparison.energy_ratio:.2f}x, "
          f"EDP {comparison.edp_improvement:.1f}x")


def cmd_thermal(args: argparse.Namespace) -> None:
    if args.tiers is None:
        accelerator = ReGraphX()
    else:
        # Materialize the tier override through the campaign convention
        # (V tier re-centered, static power rescaled with tile count).
        from repro.campaign.spec import Scenario

        accelerator = ReGraphX(Scenario(tiers=args.tiers).to_config())
    workload = accelerator.build_workload("reddit", scale=0.02, seed=args.seed or 0)
    report = accelerator.evaluate(workload)
    powers = tier_powers_from_report(report)
    defaults = ThermalSpec()
    spec = ThermalSpec(
        ambient_celsius=(
            args.ambient if args.ambient is not None else defaults.ambient_celsius
        ),
        layer_resistance=(
            args.layer_resistance
            if args.layer_resistance is not None
            else defaults.layer_resistance
        ),
    )
    model = ThermalModel(spec)
    profile = model.steady_state(powers)
    print("per-tier power (W):", [f"{p:.1f}" for p in powers])
    print("per-tier temp (C): ", [f"{t:.1f}" for t in profile.tier_celsius])
    print(f"peak {profile.peak_celsius:.1f} C on tier {profile.peak_tier} "
          f"({'feasible' if profile.feasible else 'OVER LIMIT'})")
    per_tier = sum(powers) / len(powers)
    print(f"max feasible tiers at {per_tier:.1f} W/tier: "
          f"{model.max_feasible_tiers(per_tier)}")


def cmd_serve(args: argparse.Namespace) -> None:
    from repro.serve import (
        ServingRecord,
        ServingScenario,
        get_serving_preset,
        run_serving_campaign,
        scenario_with,
        serving_key,
        serving_preset_names,
        serving_table,
        simulate_serving_scenario,
    )

    if args.list_presets:
        for name in serving_preset_names():
            spec = get_serving_preset(name)
            print(f"{spec.summary()}")
            if spec.description:
                print(f"    {spec.description}")
        return

    overrides = {}
    for field_name, arg_name in (
        ("dataset", "dataset"),
        ("scale", "scale"),
        ("arrival", "arrival"),
        ("qps", "qps"),
        ("duration_seconds", "duration"),
        ("num_tenants", "tenants"),
        ("max_batch", "batch"),
        ("policy", "policy"),
        ("instances", "instances"),
        ("seed", "seed"),
        ("autoscaler", "autoscale"),
        ("autoscale_target", "autoscale_target"),
        ("min_instances", "min_instances"),
        ("admission", "admission"),
        ("queue_budget", "queue_budget"),
        ("tenant_quota_qps", "quota_qps"),
        ("max_instances", "max_instances"),
        ("fleet", "fleet"),
        ("routing", "routing"),
        ("faults", "faults"),
        ("retry", "retry"),
        ("retry_max_attempts", "retry_attempts"),
    ):
        value = getattr(args, arg_name)
        if value is not None:
            overrides[field_name] = value
    if args.max_wait_ms is not None:
        overrides["max_wait_seconds"] = args.max_wait_ms / 1e3
    if args.slo_ms is not None:
        overrides["slo_seconds"] = args.slo_ms / 1e3
    if args.warmup_ms is not None:
        overrides["warmup_seconds"] = args.warmup_ms / 1e3
    if args.tarpit_ms is not None:
        overrides["tarpit_seconds"] = args.tarpit_ms / 1e3
    if args.hedge_ms is not None:
        overrides["hedge_seconds"] = args.hedge_ms / 1e3
    if args.autoscale is not None and args.autoscale != "none" and not args.preset:
        # Enabling the autoscaler from scratch starts the fleet at the
        # floor (that is the point of closing the loop); a preset's own
        # hand-tuned band and initial fleet are left alone.
        overrides.setdefault("instances", overrides.get("min_instances", 1))

    if args.trace_sample is not None and not args.trace_out:
        raise SystemExit("serve: --trace-sample needs --trace-out FILE")

    if args.campaign:
        if not args.preset:
            raise SystemExit("serve: --campaign needs --preset NAME")
        if args.plan_capacity:
            raise SystemExit(
                "serve: --plan-capacity is a single-point flag; drop --campaign"
            )
        if args.trace_file:
            raise SystemExit(
                "serve: --trace-file replays one stream; drop --campaign"
            )
        if args.trace_out or args.metrics_out:
            raise SystemExit(
                "serve: --trace-out/--metrics-out export one simulation; "
                "drop --campaign"
            )
        try:
            spec = get_serving_preset(args.preset)
            if overrides:
                spec = replace(spec, base=scenario_with(spec.base, **overrides))
        except ValueError as error:
            raise SystemExit(f"serve: {error}")
        _run_campaign_command(
            "serve", spec, args, run_serving_campaign,
            lambda result: serving_table(result).render(),
        )
        return

    store = None if args.no_cache else ResultStore(args.cache)
    trace = None
    if args.trace_file:
        if args.arrival is not None:
            raise SystemExit(
                "serve: --trace-file already fixes the arrivals; drop --arrival"
            )
        if args.tenants is not None:
            raise SystemExit(
                "serve: --trace-file already fixes the tenants; drop --tenants"
            )
        from repro.serve import load_trace

        trace_path = Path(args.trace_file)
        if not trace_path.is_file():
            raise SystemExit(f"serve: trace file not found: {trace_path}")
        try:
            trace = load_trace(trace_path)
        except (ValueError, KeyError, TypeError) as error:
            raise SystemExit(f"serve: cannot parse trace {trace_path}: {error}")
        overrides["qps"] = trace.rate_qps

    try:
        base = (
            get_serving_preset(args.preset).base if args.preset else ServingScenario()
        )
        scenario = scenario_with(base, **overrides) if overrides else base
    except ValueError as error:
        raise SystemExit(f"serve: {error}")
    extras = []
    if scenario.fleet:
        extras.append(f"fleet {scenario.fleet}, routing {scenario.routing}")
    if scenario.autoscaler != "none":
        extras.append(
            f"autoscale {scenario.autoscaler}@{scenario.autoscale_target:g} "
            f"in [{scenario.min_instances}, {scenario.max_instances}]"
        )
    if scenario.admission != "none":
        extras.append(
            f"admission {scenario.admission} (queue budget "
            f"{scenario.queue_budget}, quota {scenario.tenant_quota_qps:g} qps)"
        )
    if scenario.faults:
        extras.append(f"faults {scenario.faults}")
    if scenario.retry != "none" or scenario.hedge_seconds > 0:
        extras.append(
            f"retry {scenario.retry} (<= {scenario.retry_max_attempts} "
            f"attempts), hedge {scenario.hedge_seconds * 1e3:g}ms"
        )
    label = scenario.display_label
    source = (
        f"{scenario.arrival} arrivals at {scenario.qps:g} qps for "
        f"{scenario.duration_seconds:g}s, {scenario.num_tenants} tenant(s)"
    )
    if trace is not None:
        extras.append(f"trace {args.trace_file} ({len(trace.requests)} requests)")
        # The trace, not the scenario's arrival model, sets the stream.
        tenants = len({request.tenant for request in trace.requests})
        knobs = replace(scenario, num_tenants=tenants).auto_label()
        label = "trace-" + knobs.split("-", 1)[1]
        source = (
            f"trace arrivals at {scenario.qps:g} qps over a "
            f"{trace.requests[-1].arrival_time:.3f}s span, replayed for "
            f"{scenario.duration_seconds:g}s, {tenants} tenant(s)"
        )
    print(f"serving scenario {label}: {source}, "
          f"batch<= {scenario.max_batch}, wait<= "
          f"{scenario.max_wait_seconds * 1e3:g}ms, policy {scenario.policy}, "
          f"{scenario.instances} instance(s)"
          + ("".join(f"\n  {line}" for line in extras)))
    recorder = None
    registry = None
    sampler = None
    if args.trace_out:
        from repro.obs import make_recorder

        try:
            recorder = make_recorder(
                args.trace_sample or "all", slo_seconds=scenario.slo_seconds
            )
        except ValueError as error:
            raise SystemExit(f"serve: {error}")
    if args.metrics_out:
        from repro.obs import MetricRegistry, Sampler

        registry = MetricRegistry()
        # Fixed 50-tick cadence over the admission window: the series
        # length is deterministic and independent of the request count.
        sampler = Sampler(interval_seconds=scenario.duration_seconds / 50.0)

    import time

    start = time.perf_counter()
    report = simulate_serving_scenario(
        scenario,
        arrivals=trace,
        recorder=recorder,
        registry=registry,
        sampler=sampler,
    )
    elapsed = time.perf_counter() - start
    print(report.render())
    if recorder is not None:
        trace_path = recorder.export_jsonl(args.trace_out)
        print(f"wrote {len(recorder.spans())} trace spans to {trace_path}")
    if registry is not None:
        from repro.obs import export_metrics_jsonl

        metrics_path = export_metrics_jsonl(args.metrics_out, registry, sampler)
        print(
            f"wrote {len(registry)} metrics + {len(sampler)} samples "
            f"to {metrics_path}"
        )
    # The single-point path always re-simulates (the detailed per-tenant
    # report is its whole point) but feeds the store for later campaigns;
    # an existing record is left untouched so prune()'s LRU order and the
    # record's original eval timing survive repeat runs.  Trace replays
    # never touch the store — the key describes the scenario, not the
    # injected stream.
    if store is not None and trace is None:
        key = serving_key(scenario)
        if key not in store:
            record = ServingRecord.from_report(scenario, report, key, elapsed)
            store.put(key, record.to_dict())

    if args.plan_capacity:
        from repro.serve import plan_capacity

        plan = plan_capacity(
            scenario, max_instances=args.max_instances or 32, store=store
        )
        print()
        print(plan.render())


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"
    return parse


_positive_int = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ReGraphX reproduction toolkit"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed (default 0; for sweep, overrides the preset's base seed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="architecture + dataset summaries")

    exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    exp.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"experiments to run (default all): {', '.join(ALL_EXPERIMENTS)}",
    )
    exp.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (default 1)"
    )

    ev = sub.add_parser("evaluate", help="full-system evaluation of one dataset")
    ev.add_argument("dataset", choices=dataset_names())
    ev.add_argument("--scale", type=float, default=None)
    ev.add_argument("--unicast", action="store_true", help="disable multicast")

    thermal = sub.add_parser("thermal", help="3D-stack thermal feasibility study")
    thermal.add_argument(
        "--tiers", type=int, default=None,
        help="stacked tier count (default: the paper's 3-tier stack)",
    )
    thermal.add_argument(
        "--ambient", type=float, default=None,
        help="ambient temperature in C (default: ThermalSpec default)",
    )
    thermal.add_argument(
        "--layer-resistance", type=float, default=None,
        help="per-layer vertical thermal resistance in K/W",
    )

    sweep = sub.add_parser(
        "sweep", help="run a declarative scenario campaign (cached, parallel)"
    )
    sweep.add_argument("--preset", choices=preset_names(), default=None)
    sweep.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (default 1)"
    )
    sweep.add_argument(
        "--out", default="results", help="artifact directory (default results/)"
    )
    sweep.add_argument(
        "--cache", default=DEFAULT_ROOT,
        help=f"result store root (default {DEFAULT_ROOT}/)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="re-evaluate everything; do not read or write the store",
    )
    sweep.add_argument(
        "--list-presets", action="store_true", help="list presets and exit"
    )
    sweep.add_argument(
        "--prune", type=_int_at_least(0), default=None, metavar="MAX",
        help="evict oldest cached records down to MAX entries and exit",
    )

    serve = sub.add_parser(
        "serve",
        help="multi-tenant inference-serving simulation (SLO analytics)",
    )
    serve.add_argument(
        "--preset", default=None,
        help="serving preset supplying the base scenario (see --list-presets)",
    )
    serve.add_argument(
        "--campaign", action="store_true",
        help="run the preset's full cross-product instead of a single point",
    )
    serve.add_argument("--qps", type=float, default=None, help="offered load")
    serve.add_argument(
        "--instances", type=_positive_int, default=None,
        help="replicated accelerator instances",
    )
    serve.add_argument(
        "--fleet", default=None, metavar="SPEC",
        help="heterogeneous fleet composition, e.g. small:2,large:1 "
        "(types: small/default/large; overrides --instances)",
    )
    serve.add_argument(
        "--routing", default=None,
        choices=("shared_queue", "size_affinity", "po2", "tenant_pin"),
        help="routing policy between admission and the per-type queues "
        "(default shared_queue)",
    )
    serve.add_argument(
        "--batch", type=_positive_int, default=None,
        help="scheduler max batch size",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=None,
        help="scheduler max-wait deadline (milliseconds)",
    )
    serve.add_argument(
        "--policy", choices=("fifo", "wfq"), default=None,
        help="batch composition policy",
    )
    serve.add_argument(
        "--arrival", choices=("poisson", "mmpp", "diurnal"), default=None,
        help="open-loop arrival model",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="admission window (seconds of simulated traffic)",
    )
    serve.add_argument(
        "--tenants", type=_positive_int, default=None,
        help="equal-weight tenants sharing the stream",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=None,
        help="per-request latency SLO (milliseconds)",
    )
    serve.add_argument("--dataset", choices=dataset_names(), default=None)
    serve.add_argument(
        "--scale", type=float, default=None,
        help="workload scale calibrating the service model",
    )
    serve.add_argument(
        "--plan-capacity", action="store_true",
        help="also binary-search the minimum fleet meeting the SLO",
    )
    serve.add_argument(
        "--max-instances", type=_positive_int, default=None,
        help="fleet ceiling: the autoscaler's clamp (scenario default 16) "
        "and the capacity-search upper bound (default 32)",
    )
    serve.add_argument(
        "--autoscale", choices=("none", "target-util", "queue-pid"),
        default=None,
        help="close the loop: grow/shrink the fleet mid-simulation",
    )
    serve.add_argument(
        "--autoscale-target", type=float, default=None,
        help="policy setpoint (busy fraction for target-util, queued "
        "requests per replica for queue-pid)",
    )
    serve.add_argument(
        "--min-instances", type=_positive_int, default=None,
        help="autoscaler floor (default 1)",
    )
    serve.add_argument(
        "--warmup-ms", type=float, default=None,
        help="provisioning delay before a scaled-out instance serves",
    )
    serve.add_argument(
        "--admission", choices=("none", "shed", "tarpit"), default=None,
        help="overload response in front of the scheduler",
    )
    serve.add_argument(
        "--queue-budget", type=int, default=None,
        help="queue depth at which admissions are refused (0 disables)",
    )
    serve.add_argument(
        "--quota-qps", type=float, default=None,
        help="per-tenant token-bucket admission rate (0 disables)",
    )
    serve.add_argument(
        "--tarpit-ms", type=float, default=None,
        help="retry delay per refusal in tarpit mode",
    )
    serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="seeded fault injection: 'default' for the stock zoo or "
        "'mtbf=0.5,mttr=0.1,...' (crashes, slowdowns, zone outages)",
    )
    serve.add_argument(
        "--retry", choices=("none", "backoff", "deadline"), default=None,
        help="client retry policy for failed requests (default none)",
    )
    serve.add_argument(
        "--retry-attempts", type=_positive_int, default=None,
        help="total attempts per request before giving up (default 3)",
    )
    serve.add_argument(
        "--hedge-ms", type=float, default=None,
        help="hedged dispatch: duplicate a request to a second target "
        "after this delay; first copy wins (0 disables)",
    )
    serve.add_argument(
        "--trace-file", default=None, metavar="CSV",
        help="replay a recorded request stream instead of a generated "
        "arrival model (single point only)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="JSONL",
        help="record per-request lifecycle spans and write them as JSON "
        "Lines (single point only)",
    )
    serve.add_argument(
        "--trace-sample", default=None, metavar="MODE",
        help="trace sampling mode: all (default), head:N, 1-in-K, or slo "
        "(SLO violators and sheds only); needs --trace-out",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="JSONL",
        help="export run counters/gauges/latency sketches plus a "
        "fleet-state time series as JSON Lines (single point only)",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for --campaign (default 1)",
    )
    serve.add_argument(
        "--out", default="results", help="artifact directory (default results/)"
    )
    serve.add_argument(
        "--cache", default=DEFAULT_ROOT,
        help=f"result store root (default {DEFAULT_ROOT}/)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="do not touch the result store (single points always "
        "re-simulate; this also skips recording them)",
    )
    serve.add_argument(
        "--list-presets", action="store_true",
        help="list serving presets and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "experiments": cmd_experiments,
        "evaluate": cmd_evaluate,
        "thermal": cmd_thermal,
        "sweep": cmd_sweep,
        "serve": cmd_serve,
    }[args.command]
    try:
        handler(args)
    except BrokenPipeError:
        # Reader closed our stdout (`repro ... | head`); exit quietly
        # with the conventional SIGPIPE status instead of a traceback.
        sys.stderr.close()
        raise SystemExit(141)


if __name__ == "__main__":
    main()
