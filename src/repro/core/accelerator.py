"""The ReGraphX façade: build a workload, map it, schedule it, evaluate it.

This is the top of the library: everything below (graph substrate, GNN
shapes, ReRAM timing/energy, NoC scheduling, SA mapping, pipeline algebra)
is composed here into the numbers the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ReGraphXConfig
from repro.core.mapping import StageMap, anneal_mapping, contiguous_mapping
from repro.core.pipeline import PipelineModel, PipelineTiming
from repro.core.traffic import GNNTrafficModel
from repro.graph.clustering import ClusterBatcher
from repro.graph.datasets import DatasetSpec, get_dataset_spec, load_dataset
from repro.graph.graph import CSRGraph
from repro.graph.partition import PartitionResult, partition_graph
from repro.noc.schedule import ScheduleResult, StaticScheduler
from repro.reram.energy import EnergyModel
from repro.reram.sparse_mapping import BlockMapping, block_tile_adjacency


@dataclass
class Workload:
    """A dataset instance prepared for architectural evaluation.

    The representative merged sub-graph stands for every pipeline input:
    the paper's evaluation is likewise worst-case/steady-state over a
    typical input (Sec. V.C).
    """

    spec: DatasetSpec
    graph: CSRGraph
    partition: PartitionResult
    batch_size: int
    num_inputs: int
    rep_subgraph: CSRGraph
    block_mapping: BlockMapping
    layer_dims: list[tuple[int, int]]

    @property
    def num_nodes_per_input(self) -> int:
        return self.rep_subgraph.num_nodes

    @property
    def nnz_per_input(self) -> int:
        return self.block_mapping.nnz_entries

    @property
    def full_scale_num_inputs(self) -> int:
        """NumInput at the paper's full dataset size (Table II).

        Per-input sub-graph statistics are scale-invariant by construction
        (partitions scale with nodes), so epoch-level projections use the
        full-scale input count even when the graph was generated at a
        reduced scale.
        """
        return max(1, self.spec.num_partitions // self.batch_size)


@dataclass
class ReGraphXReport:
    """Full evaluation output for one workload on one configuration."""

    workload: Workload
    config: ReGraphXConfig
    stage_map: StageMap
    multicast: bool
    compute_seconds: dict[str, float]
    communication_seconds: dict[str, float]
    pipeline: PipelineTiming
    schedule: ScheduleResult
    compute_energy_per_input: float
    write_energy_per_input: float
    noc_energy_per_input: float

    @property
    def epoch_seconds(self) -> float:
        return self.pipeline.epoch_seconds

    @property
    def energy_per_input(self) -> float:
        return (
            self.compute_energy_per_input
            + self.write_energy_per_input
            + self.noc_energy_per_input
        )

    @property
    def static_epoch_energy(self) -> float:
        """Chip static draw over the whole epoch (dominant at 10 MHz)."""
        return self.config.energy.static_power_watts * self.epoch_seconds

    @property
    def epoch_energy(self) -> float:
        dynamic = self.energy_per_input * self.pipeline.num_inputs
        return dynamic + self.static_epoch_energy

    @property
    def worst_compute(self) -> float:
        return self.pipeline.worst_compute

    @property
    def worst_communication(self) -> float:
        return self.pipeline.worst_communication


class ReGraphX:
    """The accelerator model: one instance per architecture configuration."""

    def __init__(self, config: ReGraphXConfig | None = None) -> None:
        self.config = config or ReGraphXConfig()
        self._pipeline_model = PipelineModel(self.config.num_layers)
        self._inference_pipeline = PipelineModel(
            self.config.num_layers, training=False
        )

    # ------------------------------------------------------------------
    # Workload preparation
    # ------------------------------------------------------------------
    def build_workload(
        self,
        dataset: str | DatasetSpec,
        scale: float = 0.02,
        seed: int = 0,
        batch_size: int | None = None,
        graph: CSRGraph | None = None,
        partition: PartitionResult | None = None,
    ) -> Workload:
        """Prepare a dataset for evaluation.

        Args:
            dataset: dataset name or spec (Table II).
            scale: synthetic graph scale (1.0 = full Table II size).
            seed: RNG seed for generation/partitioning/batching.
            batch_size: beta; defaults to the paper's per-dataset choice.
            graph: optionally reuse an already-generated graph.
            partition: optionally reuse an existing partition.
        """
        spec = dataset if isinstance(dataset, DatasetSpec) else get_dataset_spec(dataset)
        beta = batch_size if batch_size is not None else spec.batch_size
        if beta < 1:
            raise ValueError(f"batch size must be >= 1, got {beta}")
        if graph is None:
            graph = load_dataset(spec.name, scale=scale, seed=seed, with_features=False)
        _, _, num_parts = spec.scaled(scale)
        num_parts = max(num_parts, beta)
        num_parts -= num_parts % beta or 0
        if partition is None:
            partition = partition_graph(graph, num_parts, seed=seed)
        batcher = ClusterBatcher(graph, partition, beta, seed=seed)
        rep = batcher.first_batch().subgraph
        mapping = block_tile_adjacency(rep, self.config.e_tile.crossbar_size)
        dims = [spec.feature_dim] + [spec.hidden_dim] * (spec.num_layers - 1) + [
            spec.num_classes
        ]
        layer_dims = list(zip(dims[:-1], dims[1:]))
        if len(layer_dims) != self.config.num_layers:
            raise ValueError(
                f"dataset wants {len(layer_dims)} layers but the architecture "
                f"is configured for {self.config.num_layers}"
            )
        return Workload(
            spec=spec,
            graph=graph,
            partition=partition,
            batch_size=beta,
            num_inputs=batcher.num_inputs,
            rep_subgraph=rep,
            block_mapping=mapping,
            layer_dims=layer_dims,
        )

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_stages(
        self,
        workload: Workload,
        use_sa: bool = True,
        sa_iterations: int | None = None,
        seed: int = 0,
        restarts: int = 1,
        jobs: int = 1,
    ) -> StageMap:
        """Place pipeline stages on routers (SA-optimized by default).

        ``sa_iterations=None`` scales the annealing budget with mesh size
        (2000 steps at the paper's 8x8x3 point).  ``restarts > 1`` runs
        independent annealing chains and keeps the cheapest final map,
        fanned out over ``jobs`` worker processes when asked.
        """
        if not use_sa:
            return contiguous_mapping(self.config)
        baseline = contiguous_mapping(self.config)
        traffic = GNNTrafficModel(
            self.config,
            baseline,
            workload.block_mapping,
            workload.num_nodes_per_input,
            workload.layer_dims,
        )
        return anneal_mapping(
            self.config,
            leg_volumes=traffic.leg_volumes(),
            iterations=sa_iterations,
            seed=seed,
            restarts=restarts,
            jobs=jobs,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        workload: Workload,
        multicast: bool = True,
        stage_map: StageMap | None = None,
        use_sa: bool = True,
        seed: int = 0,
        training: bool = True,
        sa_restarts: int = 1,
    ) -> ReGraphXReport:
        """Run the full architectural evaluation for one workload.

        With ``training=False`` the pipeline carries forward stages only
        (2L instead of 4L), each stage receives twice the PE budget, and
        no gradient/mask traffic is generated — the inference deployment
        of the same chip.  ``sa_restarts`` forwards to
        :meth:`map_stages` when the stage map is annealed here.
        """
        cfg = self.config
        if stage_map is None:
            if training:
                stage_map = self.map_stages(
                    workload, use_sa=use_sa, seed=seed, restarts=sa_restarts
                )
            else:
                stage_map = contiguous_mapping(cfg, training=False)
        n = workload.num_nodes_per_input
        blocks = workload.block_mapping.nnz_blocks

        compute = self._stage_compute(workload, n, blocks, training)
        traffic = GNNTrafficModel(
            cfg,
            stage_map,
            workload.block_mapping,
            n,
            workload.layer_dims,
            training=training,
        )
        scheduler = StaticScheduler(cfg.topology, cfg.noc)
        schedule = scheduler.simulate(traffic.messages(), multicast=multicast)
        comm = self._stage_communication(schedule)
        pipeline_model = self._pipeline_model if training else self._inference_pipeline
        timing = pipeline_model.timing(
            compute, comm, workload.full_scale_num_inputs
        )

        compute_energy, write_energy = self._input_energy(
            workload, n, blocks, training
        )
        return ReGraphXReport(
            workload=workload,
            config=cfg,
            stage_map=stage_map,
            multicast=multicast,
            compute_seconds=compute,
            communication_seconds=comm,
            pipeline=timing,
            schedule=schedule,
            compute_energy_per_input=compute_energy,
            write_energy_per_input=write_energy,
            noc_energy_per_input=schedule.energy_joules(),
        )

    def _stage_budgets(self, training: bool) -> tuple[int, int]:
        """(V IMAs, E crossbars) per pipeline stage for the mode."""
        cfg = self.config
        if training:
            return cfg.v_imas_per_stage, cfg.e_crossbars_per_stage
        # Inference halves the stage count, doubling each stage's share.
        v_stages = cfg.num_layers
        e_stages = cfg.num_layers
        v_imas = (
            len(cfg.v_routers()) // v_stages
        ) * cfg.tiles_per_router * cfg.v_tile.num_imas
        e_xbars = (
            len(cfg.e_routers()) // e_stages
        ) * cfg.tiles_per_router * cfg.e_tile.adjacency_blocks_per_tile
        return v_imas, e_xbars

    def _stage_compute(
        self, workload: Workload, n: int, blocks: int, training: bool = True
    ) -> dict[str, float]:
        """Deterministic per-stage compute latencies (Sec. V.A models)."""
        cfg = self.config
        t = cfg.timing
        compute: dict[str, float] = {}
        v_imas, e_xbars = self._stage_budgets(training)
        write = t.adjacency_write_latency(blocks, e_xbars)
        for i, (din, dout) in enumerate(workload.layer_dims, start=1):
            v_lat = t.v_layer_latency(n, din, dout, v_imas)
            e_lat = t.e_layer_latency(dout, blocks, e_xbars)
            compute[f"V{i}"] = v_lat
            # E stages overlap compute with (double-buffered) block loads.
            compute[f"E{i}"] = max(e_lat, write)
            if training:
                # Backward V does two matrix products (dX and dW).
                compute[f"BV{i}"] = 2.0 * v_lat
                compute[f"BE{i}"] = max(e_lat, write)
        return compute

    def _stage_communication(self, schedule: ScheduleResult) -> dict[str, float]:
        """Per-stage outgoing communication time from the NoC schedule."""
        comm: dict[str, float] = {}
        for tag, cycles in schedule.tag_finish.items():
            stage = tag.split("->")[0]
            seconds = cycles * schedule.config.cycle_time
            comm[stage] = max(comm.get(stage, 0.0), seconds)
        return comm

    def _input_energy(
        self, workload: Workload, n: int, blocks: int, training: bool = True
    ) -> tuple[float, float]:
        """(compute, write) energy one input spends traversing the pipeline."""
        cfg = self.config
        model = EnergyModel(cfg.energy)
        v_spec = cfg.v_tile.ima
        e_spec = cfg.e_tile.ima
        compute = 0.0
        for din, dout in workload.layer_dims:
            v_energy = model.v_layer_energy(
                n,
                din,
                dout,
                data_bits=v_spec.data_format.total_bits,
                crossbar_size=v_spec.crossbar_size,
                adc_bits=v_spec.adc.bits,
                slices=v_spec.weight_slices,
            )
            e_energy = model.e_layer_energy(
                dout,
                blocks,
                data_bits=e_spec.data_format.total_bits,
                block_size=e_spec.crossbar_size,
                adc_bits=e_spec.adc.bits,
            )
            if training:
                # Forward V + backward V (2x: dX, dW), forward + backward E.
                compute += 3.0 * v_energy + 2.0 * e_energy
            else:
                compute += v_energy + e_energy
        # Each input's adjacency blocks are programmed into every E stage
        # slot it passes through (forward + backward E stages when
        # training, forward only for inference).
        e_slots = (2 if training else 1) * cfg.num_layers
        writes = e_slots * model.adjacency_write_energy(
            blocks, e_spec.crossbar_size
        )
        return compute, writes
