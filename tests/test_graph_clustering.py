"""Unit tests for stochastic multi-cluster batching."""

import numpy as np
import pytest

from repro.graph.clustering import ClusterBatcher, merge_partitions


class TestMergePartitions:
    def test_merges_requested_clusters(self, small_graph, small_partition):
        batch = merge_partitions(small_graph, small_partition, (0, 1))
        expected = set(small_partition.part_nodes(0)) | set(
            small_partition.part_nodes(1)
        )
        assert set(batch.nodes.tolist()) == expected
        assert batch.subgraph.num_nodes == len(expected)

    def test_cluster_nodes_contiguous(self, small_graph, small_partition):
        """Cluster-GCN layout: each cluster's nodes occupy a contiguous
        range of the merged ordering."""
        batch = merge_partitions(small_graph, small_partition, (2, 5))
        n0 = len(small_partition.part_nodes(2))
        assert np.array_equal(batch.nodes[:n0], small_partition.part_nodes(2))
        assert np.array_equal(batch.nodes[n0:], small_partition.part_nodes(5))

    def test_recovers_between_cluster_edges(self, small_graph, small_partition):
        """The merged sub-graph keeps edges between its clusters."""
        batch = merge_partitions(
            small_graph, small_partition, tuple(range(small_partition.num_parts))
        )
        assert batch.subgraph.num_edges == small_graph.num_edges

    def test_duplicate_clusters_rejected(self, small_graph, small_partition):
        with pytest.raises(ValueError, match="duplicate"):
            merge_partitions(small_graph, small_partition, (1, 1))

    def test_features_carried(self, small_graph, small_partition):
        batch = merge_partitions(small_graph, small_partition, (0,))
        assert np.array_equal(
            batch.subgraph.features, small_graph.features[batch.nodes]
        )


class TestClusterBatcher:
    def test_num_inputs(self, small_graph, small_partition):
        batcher = ClusterBatcher(small_graph, small_partition, 2, seed=0)
        assert batcher.num_inputs == 4

    def test_epoch_covers_all_clusters(self, small_graph, small_partition):
        batcher = ClusterBatcher(small_graph, small_partition, 2, seed=0)
        seen: set[int] = set()
        for batch in batcher.epoch():
            seen.update(batch.cluster_ids)
        assert seen == set(range(8))

    def test_epoch_covers_all_nodes_when_divisible(
        self, small_graph, small_partition
    ):
        batcher = ClusterBatcher(small_graph, small_partition, 4, seed=1)
        nodes = np.concatenate([b.nodes for b in batcher.epoch()])
        assert sorted(nodes.tolist()) == list(range(small_graph.num_nodes))

    def test_epochs_reshuffle(self, small_graph, small_partition):
        batcher = ClusterBatcher(small_graph, small_partition, 2, seed=0)
        first = [b.cluster_ids for b in batcher.epoch()]
        second = [b.cluster_ids for b in batcher.epoch()]
        assert first != second  # overwhelmingly likely with 8 clusters

    def test_deterministic_per_seed(self, small_graph, small_partition):
        a = ClusterBatcher(small_graph, small_partition, 2, seed=9).epoch()
        b = ClusterBatcher(small_graph, small_partition, 2, seed=9).epoch()
        assert [x.cluster_ids for x in a] == [y.cluster_ids for y in b]

    @pytest.mark.parametrize("beta", [1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_first_batch_is_epochs_first(
        self, small_graph, small_partition, beta, seed
    ):
        alone = ClusterBatcher(small_graph, small_partition, beta, seed=seed)
        full = ClusterBatcher(small_graph, small_partition, beta, seed=seed)
        got, want = alone.first_batch(), full.epoch()[0]
        assert got.cluster_ids == want.cluster_ids
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.subgraph.indptr, want.subgraph.indptr)
        assert np.array_equal(got.subgraph.indices, want.subgraph.indices)
        assert np.array_equal(got.subgraph.features, want.subgraph.features)
        # Same single permutation draw: the two samplers stay in step.
        assert [b.cluster_ids for b in alone.epoch()] == [
            b.cluster_ids for b in full.epoch()
        ]

    def test_ragged_tail_dropped(self, small_graph, small_partition):
        batcher = ClusterBatcher(small_graph, small_partition, 3, seed=0)
        assert batcher.num_inputs == 2  # 8 // 3
        assert len(batcher.epoch()) == 2

    def test_average_input_size(self, small_graph, small_partition):
        batcher = ClusterBatcher(small_graph, small_partition, 2, seed=0)
        avg = batcher.average_input_size()
        assert avg == pytest.approx(small_graph.num_nodes / 4, rel=0.01)

    def test_rejects_bad_batch_size(self, small_graph, small_partition):
        with pytest.raises(ValueError):
            ClusterBatcher(small_graph, small_partition, 0)
        with pytest.raises(ValueError):
            ClusterBatcher(small_graph, small_partition, 99)
