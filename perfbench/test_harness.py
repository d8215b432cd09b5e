"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refclock  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_refclock_scales_each_stretch_by_the_next_kernel_run():
    clock = refclock.RefClock()
    clock.start, clock.end = 0.0, 10.0
    nominal = refclock.NOMINAL_KERNEL_S
    # Kernel runs at 2 s (nominal speed) and 6 s (half speed); the final
    # one after the block ends (half speed) scales the stretch 6..10.
    clock._marks = [(2.0, 2.0 + nominal), (6.0, 6.0 + 2 * nominal),
                    (11.0, 11.0 + 2 * nominal)]
    expected = 2.0 + (6.0 - 2.0 - nominal) / 2 + (10.0 - 6.0 - 2 * nominal) / 2
    assert clock.scaled_s == pytest.approx(expected)
    assert clock.raw_s == 10.0
    assert clock.net_s == pytest.approx(10.0 - 3 * nominal)


def test_refclock_times_a_block_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        refclock.kernel()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < clock.net_s <= clock.raw_s
    assert clock.scaled_s > 0


def test_self_time_on_nested_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 1.0, 4.0, 0),
        Span("y", 3.0, 6.0, 0),
        Span("z", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_totals(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: float(next(ticks)))
    t = Tracer()

    def leaf():
        return "leaf"

    def middle():
        t.call("leaf", leaf)
        return t.call("leaf", leaf)

    assert t.call("root", middle) == "leaf"
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("root", None), ("leaf", 0), ("leaf", 0)]
    totals = t.totals()
    # root 0..5 with leaves 1..2 and 3..4: self 5 - 2.
    assert totals["root"] == {"s": 5.0, "self_s": 3.0, "calls": 1}
    assert totals["leaf"] == {"s": 2.0, "self_s": 2.0, "calls": 2}


def test_repeat_frac_on_known_sequence():
    t = Tracer()
    for key in ("a", "b", "a", "a", "c"):
        t.note_key("layer", key)
    assert t.counters["layer.calls"] == 5
    assert t.repeat_frac("layer") == pytest.approx(2 / 5)
    assert t.repeat_frac("never-called") == 0.0


def test_wrap_function_patches_every_reference_and_restores():
    def work(x):
        return x + 1

    home = types.ModuleType("home")
    user = types.ModuleType("user")
    home.work = user.work = work
    t = Tracer()
    seen = []
    t.wrap_function(work, "work", [home, user],
                    hook=lambda tr, args, kwargs, result: seen.append(result))
    assert home.work is not work and user.work is not work
    assert user.work(1) == 2 and home.work(2) == 3
    assert seen == [2, 3]
    assert t.totals()["work"]["calls"] == 2
    t.restore()
    assert home.work is work and user.work is work


def test_traced_library_layers_and_repeat_frac():
    from repro.core.accelerator import ReGraphX

    original = ReGraphX.build_workload
    t = Tracer()
    workloads.install(t)
    try:
        accelerator = ReGraphX()
        for _ in range(2):
            accelerator.build_workload("ppi", scale=0.01, seed=0)
    finally:
        t.restore()
    assert ReGraphX.build_workload is original
    metrics = workloads.layer_metrics(t, workloads.PassResult({}, {}, []))
    assert metrics["graph.load_dataset.calls"] == 2
    assert metrics["graph.load_dataset.repeat_frac"] == 0.5
    assert metrics["graph.partition_graph.repeat_frac"] == 0.5
    assert 0 < metrics["graph.partition.cut_frac"] < 1
    assert metrics["graph.partition.imbalance"] >= 1
    parents = {s.name: t.spans[s.parent].name for s in t.spans if s.parent is not None}
    assert parents["graph.partition_graph"] == "core.build_workload"
    assert set(metrics) == set(workloads.LAYER_METRICS)


# ----------------------------------------------------------------------
# The correctness checks reject corrupted outputs
# ----------------------------------------------------------------------
def _failed(checks):
    return [name for name, ok in checks if not ok]


GOOD_ROWS = [
    {"dataset": "ppi", "speedup": 2.9, "energy_ratio": 9.7, "imbalance": 1.09},
    {"dataset": "reddit", "speedup": 3.8, "energy_ratio": 12.5, "imbalance": 1.09},
    {"dataset": "amazon2m", "speedup": 2.9, "energy_ratio": 9.7, "imbalance": 1.09},
]


def test_paper_eval_checks_accept_the_fig8_bands():
    assert _failed(workloads.paper_eval_checks(GOOD_ROWS)) == []


@pytest.mark.parametrize(
    "field,value,expected",
    [
        ("speedup", 0.9, "ppi: speedup > 1"),
        ("speedup", 5.5, "max speedup < 5"),
        ("energy_ratio", 40.0, "mean energy ratio in (5, 16)"),
        ("imbalance", 1.2, "ppi: imbalance <= 1.1"),
    ],
)
def test_paper_eval_checks_reject_corrupted_rows(field, value, expected):
    rows = [dict(GOOD_ROWS[0], **{field: value})] + GOOD_ROWS[1:]
    assert expected in _failed(workloads.paper_eval_checks(rows))


def test_arch_sweep_checks_reject_bad_records():
    rec = types.SimpleNamespace(label="s", epoch_seconds=0.2, epoch_energy_joules=9.0)
    assert _failed(workloads.arch_sweep_checks([rec], expected=1)) == []
    nan = replace_ns(rec, epoch_seconds=math.nan)
    assert _failed(workloads.arch_sweep_checks([nan], expected=1))
    assert _failed(workloads.arch_sweep_checks([rec], expected=2))


def replace_ns(ns, **changes):
    return types.SimpleNamespace(**{**vars(ns), **changes})


@pytest.fixture(scope="module")
def chaos_report():
    from repro.serve.scenario import ServingScenario, simulate_serving_scenario
    from repro.serve.service import LinearServiceModel

    scenario = ServingScenario(
        qps=2000.0, duration_seconds=0.5, fleet="small:2,large:1",
        routing="size_affinity", faults="default", retry="backoff",
        hedge_seconds=0.002, admission="shed", queue_budget=16, seed=1,
    )
    return simulate_serving_scenario(
        scenario, service=LinearServiceModel(base_seconds=2e-4, per_node_seconds=1e-8)
    )


def test_serving_checks_accept_a_real_report(chaos_report):
    assert _failed(workloads.serving_checks(chaos_report, steady=False)) == []
    # Faults fired, so the steady-state expectations must reject it.
    assert _failed(workloads.serving_checks(chaos_report, steady=True))


@pytest.mark.parametrize(
    "changes",
    [{"completed": 1}, {"utilization": 1.5}, {"availability": -0.1}],
)
def test_serving_checks_reject_a_corrupted_report(chaos_report, changes):
    bad = {
        k: (getattr(chaos_report, k) + v if k == "completed" else v)
        for k, v in changes.items()
    }
    corrupted = replace(chaos_report, **bad)
    assert _failed(workloads.serving_checks(corrupted, steady=False))
