"""Fig. 9 (extension): serving latency vs. offered load.

Not a paper figure — the paper evaluates one-shot training runs — but the
canonical serving-system plot the reproduction's serving engine enables:
sweep offered QPS against a fixed fleet and watch tail latency hold flat
until the replicas saturate, then hockey-stick as queues grow.  The knee
is the fleet's practical capacity; the SLO-violation column shows how
much of the offered load still met the latency target at each rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentTable

#: Offered loads swept by default (requests/second); chosen to straddle
#: the 2-instance fleet's saturation point at the default PPI workload.
DEFAULT_QPS = (50.0, 100.0, 200.0, 400.0, 800.0)


@dataclass(frozen=True)
class Fig9Point:
    """One offered-load sample.

    ``peak_burn_rate`` is the worst burn-rate window
    (:mod:`repro.obs.slo`): a multiple of the sustainable
    budget-spending rate, so values above 1 mark the loads where the
    error budget was being spent faster than it regenerates.
    """

    qps: float
    throughput_qps: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    utilization: float
    slo_violation_rate: float
    peak_burn_rate: float = 0.0


@dataclass(frozen=True)
class Fig9Result:
    points: tuple[Fig9Point, ...]
    instances: int
    max_batch: int

    @property
    def saturation_qps(self) -> float | None:
        """First offered rate whose p99 exceeds 5x the lightest-load p99."""
        baseline = self.points[0].p99_latency_seconds
        for point in self.points:
            if point.p99_latency_seconds > 5.0 * baseline:
                return point.qps
        return None

    def table(self) -> ExperimentTable:
        t = ExperimentTable(
            title=(
                f"Fig. 9 - serving latency vs load "
                f"({self.instances} instances, batch<={self.max_batch})"
            ),
            columns=[
                "qps", "served", "p50 ms", "p99 ms", "util", "viol%", "burn x",
            ],
        )
        for p in self.points:
            t.add_row(
                p.qps,
                p.throughput_qps,
                p.p50_latency_seconds * 1e3,
                p.p99_latency_seconds * 1e3,
                p.utilization,
                p.slo_violation_rate * 100.0,
                p.peak_burn_rate,
            )
        return t


def run_fig9(
    qps_values: tuple[float, ...] = DEFAULT_QPS,
    seed: int = 0,
    instances: int = 2,
    max_batch: int = 8,
    duration_seconds: float = 1.0,
) -> Fig9Result:
    """Sweep offered load through the serving engine (Poisson arrivals)."""
    from repro.campaign.spec import CampaignSpec
    from repro.serve.scenario import ServingScenario
    from repro.serve.sweep import run_serving_campaign

    spec = CampaignSpec(
        name="fig9",
        base=ServingScenario(
            instances=instances,
            max_batch=max_batch,
            duration_seconds=duration_seconds,
            seed=seed,
        ),
        axes=(("qps", tuple(float(q) for q in qps_values)),),
    )
    points = tuple(
        Fig9Point(
            qps=float(record.scenario["qps"]),
            throughput_qps=record.throughput_qps,
            p50_latency_seconds=record.p50_latency_seconds,
            p99_latency_seconds=record.p99_latency_seconds,
            utilization=record.utilization,
            slo_violation_rate=record.slo_violation_rate,
            peak_burn_rate=record.peak_burn_rate,
        )
        for record in run_serving_campaign(spec).records
    )
    return Fig9Result(points=points, instances=instances, max_batch=max_batch)
