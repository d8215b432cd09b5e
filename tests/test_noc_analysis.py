"""Unit tests for NoC characterization utilities."""

import numpy as np
import pytest

from oracles.flit_cycle import CycleFlitSimulator
from repro.noc import analysis
from repro.noc.analysis import (
    average_hop_count,
    bisection_links,
    latency_throughput_sweep,
    saturation_rate,
)
from repro.noc.schedule import NoCConfig
from repro.noc.stats import percentile, summarize_latencies
from repro.noc.topology import Mesh2D, Mesh3D


class TestSweep:
    def test_latency_monotone_in_load(self):
        topo = Mesh3D(4, 4, 2)
        points = latency_throughput_sweep(
            topo, rates=[0.5, 4.0, 20.0], window_cycles=500, seed=0
        )
        latencies = [p.average_latency_cycles for p in points]
        assert latencies[0] <= latencies[1] <= latencies[2]

    def test_low_load_near_uncontended(self):
        topo = Mesh3D(4, 4, 2)
        cfg = NoCConfig()
        points = latency_throughput_sweep(
            topo, rates=[0.1], window_cycles=2000, size_bits=256, config=cfg, seed=0
        )
        # ~avg 5 hops * 3 cycles + 9 flits: well under 100 cycles.
        assert points[0].average_latency_cycles < 100

    def test_saturation_detection(self):
        topo = Mesh3D(4, 4, 2)
        points = latency_throughput_sweep(
            topo, rates=[0.1, 100.0], window_cycles=500, seed=0
        )
        rate = saturation_rate(points)
        assert rate == 100.0

    def test_no_saturation_returns_none(self):
        topo = Mesh3D(4, 4, 2)
        points = latency_throughput_sweep(topo, rates=[0.1], window_cycles=1000)
        assert saturation_rate(points) is None

    def test_validation(self):
        topo = Mesh3D(4, 4, 2)
        with pytest.raises(ValueError):
            latency_throughput_sweep(topo, rates=[])
        with pytest.raises(ValueError):
            latency_throughput_sweep(topo, rates=[-1.0])
        for backend in ("quantum", "cycle"):
            with pytest.raises(ValueError, match="backend"):
                latency_throughput_sweep(topo, rates=[0.1], backend=backend)

    def test_event_backend_sweep(self):
        """The flit-level simulator drives the same sweep; the dynamic model
        interleaves flits, so it is never slower than the static schedule."""
        topo = Mesh3D(4, 4, 2)
        kwargs = dict(rates=[0.5, 4.0], window_cycles=500, seed=0)
        event = latency_throughput_sweep(topo, backend="event", **kwargs)
        static = latency_throughput_sweep(topo, backend="static", **kwargs)
        for ev, st in zip(event, static):
            assert ev.offered_rate == st.offered_rate
            assert 0 < ev.average_latency_cycles <= st.average_latency_cycles
            assert ev.max_link_load == st.max_link_load  # same flit work

    def test_event_and_cycle_backends_identical(self, monkeypatch):
        """The event sweep equals the same sweep run on the cycle-stepped
        oracle (substituted for the library's flit simulator)."""
        topo = Mesh3D(4, 4, 2)
        kwargs = dict(rates=[2.0], window_cycles=300, seed=1)
        event = latency_throughput_sweep(topo, backend="event", **kwargs)
        monkeypatch.setattr(analysis, "FlitSimulator", CycleFlitSimulator)
        cycle = latency_throughput_sweep(topo, backend="event", **kwargs)
        assert event == cycle


class TestBisection:
    def test_mesh2d_formula(self):
        # 8x8 planar mesh: 8 rows x 2 directions across the X cut.
        assert bisection_links(Mesh2D(8, 8)) == 16

    def test_3d_scales_with_tiers(self):
        assert bisection_links(Mesh3D(8, 8, 3)) == 3 * 16

    def test_more_tiers_more_bisection(self):
        assert bisection_links(Mesh3D(4, 4, 4)) == 2 * bisection_links(
            Mesh3D(4, 4, 2)
        )


class TestHopCount:
    def test_all_pairs_small_mesh(self):
        # 2x1x1 mesh: single pair at distance 1.
        assert average_hop_count(Mesh3D(2, 1, 1)) == 1.0

    def test_explicit_pairs(self):
        topo = Mesh3D(4, 4, 2)
        assert average_hop_count(topo, [(0, 1), (0, 3)]) == 2.0

    def test_3d_beats_planar_spread(self):
        """The 3D argument: same router count, shorter average distance."""
        three_d = average_hop_count(Mesh3D(4, 4, 4))
        planar = average_hop_count(Mesh2D(16, 4))
        assert three_d < planar

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            average_hop_count(Mesh3D(2, 2, 2), [])


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        for q in (0, 10, 25, 50, 75, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_single_value(self):
        assert percentile([42.0], 99) == 42.0

    def test_endpoints(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 101)
        with pytest.raises(ValueError, match="no values"):
            percentile([], 50)


class TestSummarizeLatencies:
    def test_summary_fields(self):
        values = list(range(1, 101))
        summary = summarize_latencies(values)
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        assert summary.max == 100.0
        assert summary.p99 == pytest.approx(float(np.percentile(values, 99)))

    def test_empty_population_is_all_zero(self):
        summary = summarize_latencies([])
        assert summary.count == 0
        assert summary.mean == summary.p50 == summary.p99 == summary.max == 0.0

    def test_as_dict(self):
        assert summarize_latencies([2.0]).as_dict()["p95"] == 2.0


class TestSweepTailLatencies:
    def test_sweep_points_carry_percentiles(self):
        topo = Mesh3D(3, 3, 2)
        points = latency_throughput_sweep(
            topo, rates=[0.5], window_cycles=400, seed=0
        )
        point = points[0]
        assert point.p50_latency_cycles > 0
        assert point.p50_latency_cycles <= point.p95_latency_cycles
        assert point.p95_latency_cycles <= point.p99_latency_cycles
        # The mean sits inside the distribution's support.
        assert point.p50_latency_cycles <= point.average_latency_cycles * 2

    def test_event_backend_reports_identical_tails(self):
        topo = Mesh3D(3, 3, 2)
        kwargs = dict(rates=[1.0], window_cycles=300, seed=1)
        static = latency_throughput_sweep(topo, backend="static", **kwargs)
        event = latency_throughput_sweep(topo, backend="event", **kwargs)
        assert static[0].p99_latency_cycles > 0
        assert event[0].p99_latency_cycles > 0
