"""Stochastic multi-cluster batching (Cluster-GCN, paper Sec. V.B).

Partitioning a graph into NumPart clusters loses the edges between
clusters.  Cluster-GCN therefore merges ``beta`` randomly chosen clusters
back together per training step; the induced subgraph over the merged node
set *recovers* the between-cluster edges, stabilizing training.  The number
of effective inputs per epoch is ``NumInput = NumPart / beta`` (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import CSRGraph
from repro.graph.partition import PartitionResult
from repro.utils.rng import rng_from_seed


@dataclass(frozen=True)
class ClusterBatch:
    """One merged input sub-graph: the unit the pipeline processes."""

    subgraph: CSRGraph
    nodes: np.ndarray  # original node ids, in subgraph order
    cluster_ids: tuple[int, ...]  # which partitions were merged


def merge_partitions(
    graph: CSRGraph, partition: PartitionResult, cluster_ids: list[int] | tuple[int, ...]
) -> ClusterBatch:
    """Induce the sub-graph over the union of ``cluster_ids``.

    Between-cluster edges among the selected clusters are retained — this is
    the stochastic multi-clustering correction.
    """
    cluster_ids = tuple(int(c) for c in cluster_ids)
    if len(set(cluster_ids)) != len(cluster_ids):
        raise ValueError(f"duplicate cluster ids in batch: {cluster_ids}")
    # Keep each cluster's nodes contiguous in the merged ordering: this is
    # how Cluster-GCN lays batches out, and it concentrates adjacency
    # entries near the diagonal — which is what makes small-crossbar block
    # tiling effective (paper Sec. IV.A).
    nodes = np.concatenate([partition.part_nodes(c) for c in cluster_ids])
    sub = graph.subgraph(nodes, name=f"{graph.name}/batch{cluster_ids[:3]}")
    return ClusterBatch(subgraph=sub, nodes=nodes, cluster_ids=cluster_ids)


class ClusterBatcher:
    """Epoch-wise sampler of merged cluster batches.

    Each epoch shuffles the NumPart clusters and deals them into
    ``NumInput = NumPart // beta`` groups of ``beta``; each group becomes
    one input sub-graph.  This mirrors Cluster-GCN's sampler and the
    paper's definition of batch size for GNNs.
    """

    def __init__(
        self,
        graph: CSRGraph,
        partition: PartitionResult,
        batch_size: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if batch_size > partition.num_parts:
            raise ValueError(
                f"batch size {batch_size} exceeds partition count {partition.num_parts}"
            )
        self.graph = graph
        self.partition = partition
        self.batch_size = batch_size
        self._rng = rng_from_seed(seed)

    @property
    def num_inputs(self) -> int:
        """Number of merged input sub-graphs per epoch (Table II NumInput)."""
        return self.partition.num_parts // self.batch_size

    def _groups(self) -> np.ndarray:
        """One fresh random grouping: ``NumInput`` rows of ``beta`` cluster ids."""
        order = self._rng.permutation(self.partition.num_parts)
        usable = self.num_inputs * self.batch_size  # drop the ragged tail, like the paper
        return order[:usable].reshape(self.num_inputs, self.batch_size)

    def epoch(self) -> list[ClusterBatch]:
        """Sample one epoch worth of merged batches (fresh random grouping)."""
        return [
            merge_partitions(self.graph, self.partition, tuple(g))
            for g in self._groups()
        ]

    def first_batch(self) -> ClusterBatch:
        """The first batch :meth:`epoch` would return, built alone.

        Consumes the same one permutation draw as :meth:`epoch`, so it is
        bit-identical to ``epoch()[0]`` and leaves the sampler in the
        same state, without merging the other ``NumInput - 1`` groups.
        This is the representative input sub-graph the architecture
        model tiles.
        """
        return merge_partitions(self.graph, self.partition, tuple(self._groups()[0]))

    def average_input_size(self, num_epochs: int = 1) -> float:
        """Mean node count of a merged input over ``num_epochs`` samples."""
        total = 0
        count = 0
        for _ in range(num_epochs):
            for batch in self.epoch():
                total += batch.subgraph.num_nodes
                count += 1
        return total / max(count, 1)
