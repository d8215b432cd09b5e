"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import generator_loop as oracle
from repro.graph.generators import (
    _GuideTable,
    powerlaw_community_graph,
    random_features_and_labels,
)


class TestPowerlawCommunityGraph:
    def test_hits_node_and_edge_targets(self):
        g = powerlaw_community_graph(500, 3000, num_communities=10, seed=0)
        assert g.num_nodes == 500
        assert g.num_edges == 3000

    def test_deterministic_per_seed(self):
        g1 = powerlaw_community_graph(200, 800, seed=42)
        g2 = powerlaw_community_graph(200, 800, seed=42)
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

    def test_different_seeds_differ(self):
        g1 = powerlaw_community_graph(200, 800, seed=1)
        g2 = powerlaw_community_graph(200, 800, seed=2)
        assert not (
            np.array_equal(g1.indptr, g2.indptr)
            and np.array_equal(g1.indices, g2.indices)
        )

    def test_community_attribute_attached(self):
        g = powerlaw_community_graph(300, 1200, num_communities=6, seed=0)
        assert g.community.shape == (300,)
        assert g.community.max() < 6

    def test_low_mixing_clusters_edges(self):
        clustered = powerlaw_community_graph(
            600, 4000, num_communities=6, mixing=0.02, seed=0
        )
        mixed = powerlaw_community_graph(
            600, 4000, num_communities=6, mixing=0.9, seed=0
        )
        def cross_fraction(g):
            src = np.repeat(np.arange(g.num_nodes), g.degrees)
            cross = g.community[src] != g.community[g.indices]
            return cross.mean()
        assert cross_fraction(clustered) < cross_fraction(mixed) / 2

    def test_powerlaw_has_hubs(self):
        g = powerlaw_community_graph(1000, 5000, exponent=2.1, seed=0)
        degrees = np.sort(g.degrees)[::-1]
        # Heavy tail: the top node far exceeds the average degree.
        assert degrees[0] > 3 * g.average_degree

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError, match="two nodes"):
            powerlaw_community_graph(1, 0)

    def test_rejects_bad_mixing(self):
        with pytest.raises(ValueError, match="mixing"):
            powerlaw_community_graph(10, 5, mixing=1.5)

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError, match="at most"):
            powerlaw_community_graph(10, 100)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            powerlaw_community_graph(10, 5, exponent=0.9)

    def test_rejects_zero_communities(self):
        with pytest.raises(ValueError, match="community"):
            powerlaw_community_graph(10, 5, num_communities=0)


class TestFeaturesAndLabels:
    def test_shapes(self):
        g = powerlaw_community_graph(100, 400, num_communities=5, seed=0)
        g = random_features_and_labels(g, feature_dim=12, num_classes=4, seed=0)
        assert g.features.shape == (100, 12)
        assert g.labels.shape == (100,)
        assert g.labels.max() < 4

    def test_labels_follow_communities(self):
        g = powerlaw_community_graph(100, 400, num_communities=3, seed=0)
        g = random_features_and_labels(g, feature_dim=8, num_classes=3, seed=0)
        assert np.array_equal(g.labels, np.asarray(g.community) % 3)

    def test_features_correlate_with_labels(self):
        g = powerlaw_community_graph(400, 1600, num_communities=4, seed=0)
        g = random_features_and_labels(g, 16, 4, noise=0.3, seed=0)
        # Class centroids should be far apart relative to in-class spread.
        centroids = np.stack(
            [g.features[g.labels == c].mean(axis=0) for c in range(4)]
        )
        spread = g.features.std()
        gaps = np.linalg.norm(centroids[0] - centroids[1])
        assert gaps > spread

    def test_deterministic(self):
        g = powerlaw_community_graph(50, 200, seed=0)
        a = random_features_and_labels(g, 4, 3, seed=5)
        b = random_features_and_labels(g, 4, 3, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_without_community_uses_components(self, tiny_graph):
        out = random_features_and_labels(tiny_graph, 4, 2, seed=0)
        assert out.labels.shape == (8,)

    def test_rejects_bad_dims(self, tiny_graph):
        with pytest.raises(ValueError):
            random_features_and_labels(tiny_graph, 0, 3)
        with pytest.raises(ValueError):
            random_features_and_labels(tiny_graph, 3, 0)


class TestMatchesOracle:
    """The library draws the same graph as the per-community
    ``Generator.choice`` loop and leaves a caller's generator in the same
    state."""

    @given(
        num_nodes=st.integers(2, 300),
        edge_frac=st.floats(0.0, 1.0),
        num_communities=st.integers(1, 80),
        mixing=st.sampled_from([0.0, 0.1, 1.0]),
        exponent=st.sampled_from([1.5, 2.1, 2.5, 3.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # mostly empty and single-member communities
        num_nodes=12, edge_frac=0.5, num_communities=80, mixing=0.1,
        exponent=2.5, seed=0,
    )
    @example(  # complete graph: the rounds run out before the target
        num_nodes=9, edge_frac=1.0, num_communities=3, mixing=0.0,
        exponent=2.1, seed=1,
    )
    @settings(max_examples=150, deadline=None)
    def test_same_graph_and_generator_state(
        self, num_nodes, edge_frac, num_communities, mixing, exponent, seed
    ):
        max_edges = num_nodes * (num_nodes - 1) // 2
        num_edges = int(edge_frac * min(max_edges, 6 * num_nodes))
        args = (num_nodes, num_edges, num_communities, mixing, exponent)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = powerlaw_community_graph(*args, seed=rng_got, name="g")
        want = oracle.powerlaw_community_graph(*args, seed=rng_want, name="g")
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.community, want.community)
        assert got.name == want.name
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _weights(min_size=1, max_size=60):
    """Sampling weights: equal, heavily skewed (many CDF entries share one
    guide bin), arbitrary with zeros, or a two-element population."""
    positive = st.floats(1e-3, 1e6)
    return st.one_of(
        st.integers(min_size, max_size).map(lambda m: [1.0] * m),
        st.lists(
            st.integers(-60, 60).map(lambda e: 2.0**e),
            min_size=min_size, max_size=max_size,
        ),
        st.lists(
            st.one_of(st.just(0.0), positive), min_size=min_size, max_size=max_size
        ).filter(lambda w: sum(w) > 0),
        st.lists(positive, min_size=2, max_size=2),
    )


def _distribution(weights):
    w = np.array(weights, dtype=np.float64)
    return w / w.sum()


class TestGuideTable:
    @given(weights=_weights(), size=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
    @example(weights=[1.0] + [2.0**-60] * 500, size=2000, seed=0)
    @example(weights=[2.0**-60] * 500 + [1.0], size=2000, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_matches_generator_choice(self, weights, size, seed):
        p = _distribution(weights)
        values = np.arange(p.size, dtype=np.int64) * 7 + 3
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _GuideTable([p], [values]).draw(0, rng_got.random(size))
        want = rng_want.choice(values, size, p=p)
        assert np.array_equal(got, want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @given(
        weights=st.lists(_weights(max_size=20), min_size=1, max_size=6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_segments_draw_independently(self, weights, data, seed):
        probs = [_distribution(w) for w in weights]
        values = [np.arange(p.size, dtype=np.int64) + 100 * s for s, p in enumerate(probs)]
        segment = np.array(
            data.draw(st.lists(st.integers(0, len(probs) - 1), max_size=200)),
            dtype=np.intp,
        )
        u = np.random.default_rng(seed).random(segment.size)
        got = _GuideTable(probs, values).draw(segment, u)
        for s, p in enumerate(probs):
            cdf = p.cumsum()
            cdf /= cdf[-1]
            mine = segment == s
            assert np.array_equal(
                got[mine], values[s][cdf.searchsorted(u[mine], side="right")]
            )

    @given(weights=_weights(max_size=200))
    @example(weights=[1.0, 1.0])
    @example(weights=[1.0] * 64)
    @example(weights=[1.0] + [2.0**-60] * 100)
    @settings(max_examples=150, deadline=None)
    def test_crafted_uniforms(self, weights):
        """Zero, every CDF value and guide-bin edge, their float
        neighbours, and the largest double below 1."""
        p = _distribution(weights)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        table = _GuideTable([p], [np.arange(p.size)])
        bins = int(table.bins[0])
        edges = np.concatenate([cdf, np.arange(bins) / bins])
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 2.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(table.draw(0, u), cdf.searchsorted(u, side="right"))
