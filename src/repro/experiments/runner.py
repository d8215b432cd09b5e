"""Run every experiment and print the paper's tables/figures as text.

Experiments live in the :data:`EXPERIMENTS` registry — a name-to-callable
map consumed by this runner, the ``python -m repro experiments`` CLI and
the campaign engine alike.  Each entry takes a seed and returns the
rendered table text.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

from repro.experiments.fig3_zeros import run_fig3
from repro.experiments.fig5_accuracy import run_fig5
from repro.experiments.fig6_batch import run_fig6
from repro.experiments.fig7_noc import run_fig7
from repro.experiments.fig8_fullsystem import run_fig8
from repro.experiments.fig9_serving import run_fig9
from repro.experiments.fig10_autoscale import run_fig10
from repro.experiments.fig11_fleet import run_fig11
from repro.experiments.fig12_availability import run_fig12
from repro.experiments.tables import table1_parameters, table2_datasets


def _table1(seed: int) -> str:
    return table1_parameters().render()


def _table2(seed: int) -> str:
    return table2_datasets().render()


def _fig3(seed: int) -> str:
    return run_fig3(seed=seed).table().render()


def _fig5(seed: int) -> str:
    return run_fig5(seed=seed).table().render()


def _fig6(seed: int) -> str:
    return run_fig6(seed=seed).table().render()


def _fig7(seed: int) -> str:
    return run_fig7(seed=seed).table().render()


def _fig8(seed: int) -> str:
    result = run_fig8(seed=seed)
    summary = (
        f"\naverage speedup {result.mean_speedup:.2f} "
        f"(paper: ~3X), max {result.max_speedup:.2f} (paper: up to 3.5X)"
        f"\naverage energy savings {result.mean_energy_ratio:.2f} "
        f"(paper: up to ~11X)"
        f"\naverage EDP improvement {result.mean_edp_improvement:.1f} "
        f"(paper: ~34X average, up to 40X)"
    )
    return result.table().render() + summary


def _fig9(seed: int) -> str:
    result = run_fig9(seed=seed)
    knee = result.saturation_qps
    summary = (
        f"\nsaturation at ~{knee:g} qps offered"
        if knee is not None
        else "\nno saturation within the swept loads"
    )
    return result.table().render() + summary


def _fig10(seed: int) -> str:
    result = run_fig10(seed=seed)
    util = result.point("autoscale-util")
    summary = (
        f"\ntarget-util autoscaler: {result.savings:.1%} fewer "
        f"instance-seconds than static peak provisioning "
        f"({'SLO met' if util.meets_slo else 'SLO MISSED'})"
    )
    return result.table().render() + summary


def _fig11(seed: int) -> str:
    result = run_fig11(seed=seed)
    het = result.point("het-planned")
    best = result.best_homogeneous
    if het.feasible and best is not None:
        summary = (
            f"\nplanned fleet [{het.fleet}] meets the SLO at "
            f"{result.savings:.1%} lower $-rate than the best homogeneous "
            f"fleet [{best.fleet}] "
            f"({result.compositions_skipped} costlier compositions skipped)"
        )
    else:
        summary = "\nno feasible heterogeneous composition found"
    return result.table().render() + summary


def _fig12(seed: int) -> str:
    result = run_fig12(seed=seed)
    hedged = result.point("faults/retry+hedge")
    bare = result.point("faults/no-retry")
    summary = (
        f"\nretry+hedging recovers {hedged.recovery:.1%} of fault-free "
        f"SLO-attainment (no-retry: {bare.recovery:.1%}) at availability "
        f"{hedged.availability:.1%} despite {hedged.crashes} killed "
        f"instance(s)"
    )
    if result.plan_fleet_n1:
        summary += (
            f"\nN+1 fleet [{result.plan_fleet_n1}] survives the worst "
            f"single outage at {result.availability_premium:+.0%} $-rate "
            f"over N+0 [{result.plan_fleet_n0}]"
        )
    else:
        summary += "\nno feasible N+1 composition in the searched space"
    return result.table().render() + summary


#: Experiment registry: name -> callable(seed) -> rendered text.
EXPERIMENTS: dict[str, Callable[[int], str]] = {
    "table1": _table1,
    "table2": _table2,
    "fig3": _fig3,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
}

ALL_EXPERIMENTS = tuple(EXPERIMENTS)


def _run_one(name: str, seed: int) -> tuple[str, str, float]:
    """Worker: run one registry entry (top level so pools can pickle it)."""
    start = time.time()
    text = EXPERIMENTS[name](seed)
    return name, text, time.time() - start


def run(
    names: list[str] | None = None, seed: int = 0, jobs: int = 1
) -> dict[str, str]:
    """Run the selected experiments; returns {name: rendered table}.

    With ``jobs > 1`` the experiments fan out across processes; output
    order still follows the requested order.  ``jobs < 1`` is rejected.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    names = list(names or ALL_EXPERIMENTS)
    unknown = set(names) - set(EXPERIMENTS)
    if unknown:
        raise ValueError(f"unknown experiments: {sorted(unknown)}")
    out: dict[str, str] = {}
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            futures = [pool.submit(_run_one, name, seed) for name in names]
            results = {name: (text, elapsed)
                       for name, text, elapsed in (f.result() for f in futures)}
        for name in names:
            text, elapsed = results[name]
            out[name] = f"{text}\n[{elapsed:.1f}s]"
    else:
        for name in names:
            _, text, elapsed = _run_one(name, seed)
            out[name] = f"{text}\n[{elapsed:.1f}s]"
    return out
