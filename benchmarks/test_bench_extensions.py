"""Benchmarks for the extension studies (paper future work + robustness).

* **Tier-count design sweep** — quantifies the paper's thermal remark:
  more tiers add E-PE capacity but raise peak temperature; the Pareto
  front exposes the trade-off.
* **Device-variation robustness** — MAC error vs lognormal conductance
  sigma and stuck-at fault rates (the analog credibility check).
* **NoC saturation** — latency/throughput curve of the 3D mesh.
"""

from benchmarks.conftest import run_once
from repro.campaign.analysis import pareto_records
from repro.campaign.executor import run_scenarios
from repro.campaign.spec import Scenario
from repro.noc.analysis import latency_throughput_sweep
from repro.noc.topology import Mesh3D
from repro.reram.variation import VariationModel, relative_error_study
from repro.utils.units import format_seconds


def test_extension_tier_sweep(benchmark):
    scenarios = [
        Scenario(dataset="reddit", scale=0.01, tiers=tiers, label=f"{tiers}-tier")
        for tiers in (2, 3, 4, 6)
    ]
    points = run_once(benchmark, run_scenarios, scenarios).records
    print("\ndesign    epoch        energy(J)  peak(C)  feasible")
    for p in points:
        print(
            f"{p.label:<9} {format_seconds(p.epoch_seconds):<12} "
            f"{p.epoch_energy_joules:<10.2f} {p.peak_celsius:<8.1f} "
            f"{p.thermally_feasible}"
        )
    front = pareto_records(points)
    print(f"Pareto front: {[p.label for p in front]}")
    temps = [p.peak_celsius for p in points]
    assert temps == sorted(temps)  # stacking always heats up
    three_tier = next(p for p in points if p.label == "3-tier")
    assert three_tier.thermally_feasible  # the paper's design point holds


def test_extension_variation_robustness(benchmark):
    def run():
        rows = []
        for sigma in (0.0, 0.05, 0.1, 0.2):
            rows.append(
                ("sigma", sigma,
                 relative_error_study(VariationModel(sigma=sigma), trials=3))
            )
        for rate in (0.01, 0.05):
            rows.append(
                ("stuck-off", rate,
                 relative_error_study(
                     VariationModel(stuck_off_rate=rate), trials=3
                 ))
            )
        return rows

    rows = run_once(benchmark, run)
    print("\nnon-ideality        value   relative MAC error")
    for kind, value, err in rows:
        print(f"{kind:<18} {value:<7} {err:.4f}")
    sigma_errors = [err for kind, _, err in rows if kind == "sigma"]
    assert sigma_errors == sorted(sigma_errors)
    assert sigma_errors[0] < 0.01  # ideal path is quantization-limited


def test_extension_noc_saturation(benchmark):
    topo = Mesh3D(8, 8, 3)
    points = run_once(
        benchmark,
        latency_throughput_sweep,
        topo,
        rates=[0.25, 1.0, 4.0, 16.0],
        window_cycles=1000,
    )
    print("\nrate(msg/router/100cyc)  avg latency(cyc)  max link load")
    for p in points:
        print(
            f"{p.offered_rate:>22}  {p.average_latency_cycles:>16.1f}  "
            f"{p.max_link_load:>13}"
        )
    latencies = [p.average_latency_cycles for p in points]
    assert latencies == sorted(latencies)
