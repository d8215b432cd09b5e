"""Design-space exploration: batch size, mapping policy, and NoC clocks.

Uses the full ReGraphX model to answer three questions a designer would
ask (ablations of the design choices in docs/architecture.rst):

1. How does batch size beta trade training time against E-PE storage?
2. What does the SA mapper buy over a random placement?
3. How sensitive is the pipeline to the NoC clock?

Run:  python examples/design_space.py
"""

from dataclasses import replace

from repro.core import ReGraphX, random_mapping
from repro.core.config import ReGraphXConfig
from repro.experiments.fig6_batch import run_fig6
from repro.noc.schedule import NoCConfig
from repro.utils.units import GHZ, format_seconds


def batch_size_study() -> None:
    print("=== 1. batch size trade-off (Reddit-like) ===")
    result = run_fig6(dataset="reddit", betas=(1, 5, 10, 20))
    print(result.table().render())


def mapping_study() -> None:
    print("\n=== 2. mapping policy (Reddit-like) ===")
    accelerator = ReGraphX()
    workload = accelerator.build_workload("reddit", scale=0.02, seed=0)
    for label, kwargs in [
        ("contiguous (aligned)", {"use_sa": False}),
        ("simulated annealing", {"use_sa": True}),
        ("random placement", {"stage_map": random_mapping(accelerator.config, seed=5)}),
    ]:
        report = accelerator.evaluate(workload, multicast=True, **kwargs)
        print(
            f"  {label:<22} worst comm "
            f"{format_seconds(report.worst_communication)}  period "
            f"{format_seconds(report.pipeline.period)}"
        )


def noc_clock_study() -> None:
    print("\n=== 3. NoC clock sensitivity (Reddit-like) ===")
    for clock_ghz in (0.2, 0.4, 0.8, 1.6):
        config = ReGraphXConfig(noc=NoCConfig(clock_hz=clock_ghz * GHZ))
        accelerator = ReGraphX(config)
        workload = accelerator.build_workload("reddit", scale=0.02, seed=0)
        report = accelerator.evaluate(workload, multicast=True, use_sa=False)
        bound = "comm" if report.worst_communication > report.worst_compute else "comp"
        print(
            f"  {clock_ghz:.1f} GHz: period "
            f"{format_seconds(report.pipeline.period)} ({bound}-bound), epoch "
            f"{format_seconds(report.epoch_seconds)}"
        )
    print("\nOnce communication is cheaper than the fixed ReRAM compute time,")
    print("a faster NoC stops helping - the paper's 'any further speed-up in")
    print("computation will be meaningless' observation, inverted.")


def main() -> None:
    batch_size_study()
    mapping_study()
    noc_clock_study()


if __name__ == "__main__":
    main()
