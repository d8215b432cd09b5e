"""Per-batch service-time models for the serving engine.

The authoritative model (:class:`AcceleratorServiceModel`) is derived from
the existing architecture evaluation: one inference-mode
``ReGraphX.evaluate()`` run calibrates the pipeline period and fill depth
for a dataset, and a batch of requests then costs the pipeline fill plus
one period per request, scaled by each request's graph size relative to
the calibrated representative sub-graph (stage latencies are linear in
node count, see ``repro.reram.timing.v_layer_latency``).  Batch times are
memoized by batch *shape* — the multiset of request graph sizes — so
million-request simulations never re-enter the evaluation stack.

:class:`LinearServiceModel` is the cheap analytic stand-in for tests and
constructed capacity-planning workloads: a fixed batch overhead plus a
per-node cost, no accelerator evaluation at all.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import ReGraphXConfig


class ServiceModel:
    """Interface: seconds one replica needs to serve one batch."""

    def batch_service_seconds(self, graph_sizes: Sequence[int]) -> float:
        """Seconds one replica is occupied serving this batch."""
        raise NotImplementedError


def _validated(graph_sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in graph_sizes)
    if not sizes:
        raise ValueError("a batch needs at least one request")
    if any(s < 1 for s in sizes):
        raise ValueError(f"graph sizes must be positive, got {sizes}")
    return sizes


class LinearServiceModel(ServiceModel):
    """``base + per_node * sum(sizes)`` — the analytic stand-in."""

    def __init__(
        self, base_seconds: float = 0.002, per_node_seconds: float = 2e-6
    ) -> None:
        if base_seconds < 0 or per_node_seconds < 0:
            raise ValueError("service-time coefficients must be non-negative")
        self.base_seconds = base_seconds
        self.per_node_seconds = per_node_seconds

    def batch_service_seconds(self, graph_sizes: Sequence[int]) -> float:
        """Fixed overhead plus the summed per-node cost."""
        sizes = _validated(graph_sizes)
        return self.base_seconds + self.per_node_seconds * sum(sizes)


class AcceleratorServiceModel(ServiceModel):
    """Service times calibrated by the inference-mode accelerator pipeline.

    One ``evaluate(training=False)`` run (lazy, on first use) yields the
    pipeline period ``T`` and stage count ``S`` for the dataset's
    representative sub-graph of ``n_ref`` nodes.  A batch with request
    graph sizes ``s_1..s_k`` then occupies a replica for::

        (S - 1) * T  +  T * sum_i(s_i / n_ref)

    i.e. the pipeline fill plus one size-scaled period per request —
    exactly how ``PipelineTiming.epoch_seconds`` charges an epoch of
    inputs, re-expressed per batch.
    """

    def __init__(
        self,
        dataset: str = "ppi",
        scale: float = 0.05,
        seed: int = 0,
        config: ReGraphXConfig | None = None,
    ) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.dataset = dataset
        self.scale = scale
        self.seed = seed
        self.config = config
        self._period: float | None = None
        self._fill_seconds = 0.0
        self._ref_nodes = 1
        self._memo: dict[tuple[int, ...], float] = {}

    def _calibrate(self) -> None:
        if self._period is not None:
            return
        from repro.core.accelerator import ReGraphX

        accelerator = ReGraphX(self.config)
        workload = accelerator.build_workload(
            self.dataset, scale=self.scale, seed=self.seed
        )
        report = accelerator.evaluate(
            workload, use_sa=False, seed=self.seed, training=False
        )
        self._period = report.pipeline.period
        self._fill_seconds = (report.pipeline.num_stages - 1) * report.pipeline.period
        self._ref_nodes = workload.num_nodes_per_input

    @property
    def period_seconds(self) -> float:
        """Calibrated per-input pipeline period (triggers calibration)."""
        self._calibrate()
        assert self._period is not None
        return self._period

    @property
    def fill_seconds(self) -> float:
        """Calibrated pipeline fill time (stages minus one, one period each)."""
        self._calibrate()
        return self._fill_seconds

    @property
    def reference_nodes(self) -> int:
        """Node count of the calibrated representative sub-graph."""
        self._calibrate()
        return self._ref_nodes

    def batch_service_seconds(self, graph_sizes: Sequence[int]) -> float:
        # Memoized by batch shape: order within a batch cannot change the
        # pipeline occupancy, so the key is the sorted size multiset.  A
        # hit needs no validation: every key was validated when stored.
        cached = self._memo.get(tuple(sorted(graph_sizes)))
        if cached is not None:
            return cached
        shape = tuple(sorted(_validated(graph_sizes)))
        self._calibrate()
        assert self._period is not None
        seconds = self._fill_seconds + self._period * sum(
            size / self._ref_nodes for size in shape
        )
        self._memo[shape] = seconds
        return seconds
