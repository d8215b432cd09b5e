"""Tests for the serving engine's arrival processes.

Covers seeded determinism, empirical rate matching the nominal rate
within tolerance, trace replay round-tripping through CSV export, and
the draw itself: every stream equals the per-request reference loop in
``tests/oracles/arrival_loop.py`` (numpy's ``Generator.integers`` size
draw included), and a shorter horizon yields a prefix of a longer one.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arrival_loop
from oracles.tenant_draw import SearchsortedMix

from repro.serve.arrivals import (
    ARRIVALS,
    ClosedLoopPool,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    StreamRng,
    TenantMix,
    TraceArrivals,
    load_trace,
    make_arrivals,
    save_trace,
)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError, match="tenant"):
            Request(tenant="", graph_size=10, arrival_time=0.0)
        with pytest.raises(ValueError, match="graph_size"):
            Request(tenant="t", graph_size=0, arrival_time=0.0)
        with pytest.raises(ValueError, match="arrival_time"):
            Request(tenant="t", graph_size=10, arrival_time=-1.0)


class TestTenantMix:
    def test_uniform_names_and_weights(self):
        mix = TenantMix.uniform(3)
        assert mix.tenant_names == ("tenant-0", "tenant-1", "tenant-2")
        assert all(w == 1.0 for w in mix.weights.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            TenantMix(tenants=())
        with pytest.raises(ValueError, match="duplicate"):
            TenantMix(tenants=(("a", 1.0), ("a", 2.0)))
        with pytest.raises(ValueError, match="positive"):
            TenantMix(tenants=(("a", 0.0),))
        with pytest.raises(ValueError, match="graph sizes"):
            TenantMix(graph_sizes=())
        with pytest.raises(ValueError, match="size_weights"):
            TenantMix(graph_sizes=(10, 20), size_weights=(1.0,))

    def test_draws_come_from_the_alphabet(self):
        from repro.utils.rng import rng_from_seed

        mix = TenantMix(tenants=(("a", 1.0), ("b", 1.0)), graph_sizes=(64, 256))
        rng = rng_from_seed(0)
        for _ in range(50):
            tenant, size = mix.draw(rng)
            assert tenant in mix.tenant_names
            assert size in (64, 256)


class _ScriptedRng:
    """An rng stub replaying scripted ``random()`` / ``integers()`` values."""

    def __init__(self, uniforms, integers=()):
        self._uniforms = list(uniforms)
        self._integers = list(integers)

    def random(self):
        return self._uniforms.pop(0)

    def integers(self, high):
        return self._integers.pop(0) % high


_WEIGHTS = st.lists(
    st.floats(0.001, 1000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


def _edges(table):
    """Each cut point of a cumulative table and its two float neighbours,
    plus the ends of [0, 1)."""
    points = {0.0, math.nextafter(1.0, 0.0)}
    for cut in table:
        cut = float(cut)
        points.update(
            p
            for p in (math.nextafter(cut, 0.0), cut, math.nextafter(cut, 2.0))
            if 0.0 <= p < 1.0
        )
    return sorted(points)


class TestDrawMatchesSearchsorted:
    """``TenantMix.draw`` picks the cell numpy's ``searchsorted`` did.

    The stub rng returns every cumulative cut point of the old numpy
    tables exactly (and its float neighbours), where a ``side="right"``
    mismatch or a rounding difference between the tables would show.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        tenant_weights=_WEIGHTS,
        size_weights=st.one_of(st.none(), _WEIGHTS),
    )
    def test_cut_points(self, tenant_weights, size_weights):
        tenants = tuple((f"t{i}", w) for i, w in enumerate(tenant_weights))
        sizes = tuple(64 * (i + 1) for i in range(len(size_weights or (1, 2, 3))))
        mix = TenantMix(
            tenants=tenants,
            graph_sizes=sizes,
            size_weights=None if size_weights is None else tuple(size_weights),
        )
        oracle = SearchsortedMix(mix)
        tenant_points = _edges(oracle._tenant_cum)
        size_points = (
            _edges(oracle._size_cum) if oracle._size_cum is not None else [0.5]
        )
        # Every tenant cut against every size cut, and the roles swapped.
        script = [(u, v) for u in tenant_points for v in size_points]
        script += [(v, u) for u, v in script]
        for k, (u, v) in enumerate(script):
            expected = oracle.draw(_ScriptedRng([u, v], [k]))
            assert mix.draw(_ScriptedRng([u, v], [k])) == expected

    @pytest.mark.parametrize("kind", sorted(ARRIVALS) + ["trace", "closed"])
    def test_generate_is_unchanged(self, kind):
        mix = TenantMix(
            tenants=(("gold", 3.0), ("silver", 1.0), ("bronze", 0.25)),
            graph_sizes=(256, 1024, 4096),
            size_weights=(5.0, 2.0, 1.0) if kind != "poisson" else None,
        )

        # The reference is the per-request loop drawing through the numpy
        # tables with numpy's own Generator (``integers`` included).
        def stream(oracle):
            if kind == "closed":
                pool = (
                    arrival_loop.ClosedLoop(
                        8, 0.01, mix, seed=4, draw_mix=SearchsortedMix(mix)
                    )
                    if oracle
                    else ClosedLoopPool(num_clients=8, think_seconds=0.01, mix=mix, seed=4)
                )
                return pool.initial_requests() + [
                    pool.next_request(0.01 * i) for i in range(500)
                ]
            process = make_arrivals(
                "poisson" if kind == "trace" else kind, 2000.0, mix=mix, seed=4
            )
            requests = (
                arrival_loop.generate(process, 1.0, mix=SearchsortedMix(mix))
                if oracle
                else process.generate(1.0)
            )
            if kind == "trace":
                return TraceArrivals(requests).generate(1.0)
            return requests

        library = stream(oracle=False)
        assert len(library) > 500
        assert stream(oracle=True) == library


def _mix(num_tenants: int, num_sizes: int, weighted: bool) -> TenantMix:
    """Unequal tenant weights; uniform or unequal size weights."""
    return TenantMix(
        tenants=tuple((f"t{i}", 1.0 + i) for i in range(num_tenants)),
        graph_sizes=tuple(16 * (i + 1) for i in range(num_sizes)),
        size_weights=(
            tuple(1.0 + (5 * i) % 3 for i in range(num_sizes)) if weighted else None
        ),
    )


class TestStreamMatchesOracle:
    """Every stream equals the per-request reference loop, value for value."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(ARRIVALS) + ["trace", "closed"]),
        num_sizes=st.sampled_from((1, 2, 3, 5, 64)),
        weighted=st.booleans(),
        num_tenants=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
        horizon=st.sampled_from((0.01, 0.2, 1.5)),
    )
    def test_library_stream_is_the_reference_stream(
        self, kind, num_sizes, weighted, num_tenants, seed, horizon
    ):
        mix = _mix(num_tenants, num_sizes, weighted)
        if kind == "closed":
            pool = ClosedLoopPool(num_clients=3, think_seconds=0.01, mix=mix, seed=seed)
            oracle = arrival_loop.ClosedLoop(3, 0.01, mix, seed=seed)
            steps = int(400 * horizon)
            assert pool.initial_requests() + [
                pool.next_request(0.01 * i) for i in range(steps)
            ] == oracle.initial_requests() + [
                oracle.next_request(0.01 * i) for i in range(steps)
            ]
            return
        process = make_arrivals(
            "poisson" if kind == "trace" else kind, 600.0, mix=mix, seed=seed,
            **({"period_seconds": 0.5} if kind == "diurnal" else {}),
        )
        if kind == "trace":
            process = TraceArrivals(
                process.generate(horizon) or [Request("t0", 16, 0.0)]
            )
        assert process.generate(horizon) == arrival_loop.generate(process, horizon)

    def test_single_size_draws_no_integer(self):
        """``n == 1`` consumes nothing, so the stream is the oracle's too
        with every other draw in place."""
        process = PoissonArrivals(900.0, mix=_mix(2, 1, False), seed=5)
        assert process.generate(1.0) == arrival_loop.generate(process, 1.0)


class TestStreamRngIntegers:
    """``StreamRng.integers`` is ``Generator.integers`` for PCG64."""

    def test_matches_generator_over_interleaved_draws(self):
        # Integer draws interleaved with whole-word draws, so the cached
        # upper half survives random()/exponential() between them; the
        # bounds include 1 (no draw) and 2**31 + 1 (rejects ~half the time).
        bounds = (1, 2, 3, 5, 7, 64, 1000, 2**31 + 1, 2**32 - 1, 2**32)
        script = random.Random(0)
        stream, rng = StreamRng(17), np.random.default_rng(17)
        for _ in range(100_000):
            op = script.randrange(4)
            if op == 0:
                assert stream.random() == rng.random()
            elif op == 1:
                assert stream.exponential(0.5) == rng.exponential(0.5)
            else:
                n = script.choice(bounds)
                assert stream.integers(n) == rng.integers(n)
        assert stream.integers(2**32) == rng.integers(2**32)
        assert stream.random() == rng.random()

    def test_continues_a_generator_with_a_cached_half(self):
        rng = np.random.default_rng(3)
        rng.integers(10)  # leaves the upper half of its raw word cached
        stream = StreamRng(rng)
        reference = np.random.default_rng(3)
        reference.integers(10)
        assert [stream.integers(6) for _ in range(5)] == [
            reference.integers(6) for _ in range(5)
        ]

    @staticmethod
    def _scripted(words):
        stream = StreamRng(0)
        stream._raw = iter(words).__next__
        return stream

    def test_rejection_draws_the_next_32_bit_word(self):
        # n = 3: the threshold (2**32 - 3) % 3 is 1, so only a zero word
        # is rejected.  The first word's low half is 0: rejected, and the
        # draw takes the cached upper half; the next draw starts a fresh
        # raw word and the one after reads its upper half.
        hi = 0xC0000000
        second = (0x40000000 << 32) | 0x80000000
        stream = self._scripted([hi << 32, second])
        assert stream.integers(3) == (hi * 3) >> 32 == 2
        assert stream.integers(3) == (0x80000000 * 3) >> 32 == 1
        assert stream.integers(3) == (0x40000000 * 3) >> 32 == 0

    def test_rejection_can_span_raw_words(self):
        # Both halves of the first word are rejected; the draw ends on the
        # low half of the second word and caches its upper half.
        stream = self._scripted([0, (7 << 32) | 0xFFFFFFFF, 0x12345678])
        assert stream.integers(3) == (0xFFFFFFFF * 3) >> 32 == 2
        assert stream.integers(2**32) == 7
        assert stream.integers(2**32) == 0x12345678

    def test_single_bound_consumes_nothing(self):
        stream = self._scripted([(5 << 32) | 9])
        assert stream.integers(1) == 0
        assert stream.integers(2**32) == 9
        assert stream.integers(2**32) == 5


class TestStreamPrefix:
    """A shorter horizon yields a prefix of a longer one: the stream is
    drawn in order and cut at the horizon, so perfbench's serving
    workloads can cut a longer stream at request N + 1."""

    @pytest.mark.parametrize("kind", sorted(ARRIVALS))
    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_shorter_horizon_is_a_prefix(self, kind, seed):
        process = make_arrivals(kind, 400.0, mix=_mix(2, 3, False), seed=seed)
        longest = process.generate(3.0)
        for horizon in (0.1, 0.75, 2.0, 3.0):
            shorter = process.generate(horizon)
            assert shorter == longest[: len(shorter)]
            assert all(r.arrival_time >= horizon for r in longest[len(shorter):])


class TestSeededDeterminism:
    @pytest.mark.parametrize("kind", sorted(ARRIVALS))
    def test_same_seed_same_stream(self, kind):
        a = make_arrivals(kind, 150.0, seed=7).generate(5.0)
        b = make_arrivals(kind, 150.0, seed=7).generate(5.0)
        assert a == b
        assert len(a) > 0

    @pytest.mark.parametrize("kind", sorted(ARRIVALS))
    def test_different_seed_different_stream(self, kind):
        a = make_arrivals(kind, 150.0, seed=1).generate(5.0)
        b = make_arrivals(kind, 150.0, seed=2).generate(5.0)
        assert a != b

    def test_streams_are_time_ordered_with_sequential_ids(self):
        requests = PoissonArrivals(100.0, seed=3).generate(4.0)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        assert all(t < 4.0 for t in times)


class TestEmpiricalRates:
    def test_poisson_rate_matches_nominal(self):
        rate = 200.0
        requests = PoissonArrivals(rate, seed=0).generate(30.0)
        assert len(requests) / 30.0 == pytest.approx(rate, rel=0.10)

    def test_mmpp_time_average_matches_nominal(self):
        # Burst/quiet cycles are ~1.25 s; average over many cycles.
        rate = 200.0
        requests = MMPPArrivals(rate, seed=0).generate(120.0)
        assert len(requests) / 120.0 == pytest.approx(rate, rel=0.15)

    def test_mmpp_is_burstier_than_poisson(self):
        import numpy as np

        def cov_of_counts(requests, horizon, bins=200):
            counts, _ = np.histogram(
                [r.arrival_time for r in requests], bins=bins, range=(0, horizon)
            )
            return counts.std() / counts.mean()

        horizon = 60.0
        poisson = PoissonArrivals(200.0, seed=0).generate(horizon)
        mmpp = MMPPArrivals(200.0, seed=0).generate(horizon)
        assert cov_of_counts(mmpp, horizon) > 1.5 * cov_of_counts(poisson, horizon)

    def test_diurnal_rate_matches_nominal_over_whole_periods(self):
        # The sine modulation integrates to zero over whole periods only.
        rate = 200.0
        process = DiurnalArrivals(rate, seed=0, period_seconds=5.0)
        requests = process.generate(20.0)
        assert len(requests) / 20.0 == pytest.approx(rate, rel=0.10)

    def test_diurnal_peak_vs_trough(self):
        process = DiurnalArrivals(200.0, seed=1, period_seconds=10.0)
        requests = process.generate(10.0)
        # First half-period is the peak of the sine, second the trough:
        # at amplitude 0.5 their expected counts are in the ratio
        # (pi + 1) / (pi - 1), about 1.93.
        assert DiurnalArrivals.amplitude == 0.5
        peak = sum(1 for r in requests if r.arrival_time < 5.0)
        trough = len(requests) - peak
        assert peak > 1.5 * trough


class TestTraceReplay:
    def test_csv_round_trip(self, tmp_path):
        original = MMPPArrivals(120.0, mix=TenantMix.uniform(3), seed=5).generate(3.0)
        path = save_trace(original, tmp_path / "trace.csv")
        replay = load_trace(path)
        assert list(replay.requests) == original
        assert replay.generate(3.0) == original

    def test_generate_clips_to_horizon(self):
        requests = [
            Request(tenant="t", graph_size=10, arrival_time=float(i), request_id=i)
            for i in range(5)
        ]
        trace = TraceArrivals(requests)
        assert [r.arrival_time for r in trace.generate(2.5)] == [0.0, 1.0, 2.0]

    def test_trace_orders_by_time(self):
        requests = [
            Request(tenant="t", graph_size=10, arrival_time=2.0, request_id=0),
            Request(tenant="t", graph_size=10, arrival_time=1.0, request_id=1),
        ]
        trace = TraceArrivals(requests)
        assert [r.request_id for r in trace.requests] == [1, 0]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="at least one request"):
            TraceArrivals([])

    def test_repeated_request_ids_rejected(self, tmp_path):
        # Requests built without ids all default to id 0; the engine keys
        # hedged copies by id, so a replay of them would lose requests.
        unnamed = [
            Request(tenant="t", graph_size=10, arrival_time=0.01 * i)
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="duplicate request id 0"):
            TraceArrivals(unnamed)
        path = save_trace(
            [
                Request(tenant="t", graph_size=10, arrival_time=0.01 * i,
                        request_id=i % 2)
                for i in range(3)
            ],
            tmp_path / "repeated.csv",
        )
        with pytest.raises(ValueError, match="duplicate request id"):
            load_trace(path)


class TestClosedLoopPool:
    def test_initial_requests_one_per_client(self):
        pool = ClosedLoopPool(num_clients=5, think_seconds=0.1, seed=0)
        initial = pool.initial_requests()
        assert len(initial) == 5
        assert [r.request_id for r in initial] == list(range(5))

    def test_next_request_after_completion(self):
        pool = ClosedLoopPool(num_clients=1, think_seconds=0.05, seed=0)
        pool.initial_requests()
        follow_up = pool.next_request(completion_time=2.0)
        assert follow_up.arrival_time >= 2.0
        assert follow_up.request_id == 1

    def test_zero_think_time(self):
        pool = ClosedLoopPool(num_clients=2, think_seconds=0.0, seed=0)
        assert all(r.arrival_time == 0.0 for r in pool.initial_requests())
        assert pool.next_request(1.5).arrival_time == 1.5

    def test_deterministic(self):
        a = ClosedLoopPool(num_clients=3, think_seconds=0.1, seed=4)
        b = ClosedLoopPool(num_clients=3, think_seconds=0.1, seed=4)
        assert a.initial_requests() == b.initial_requests()
        assert a.next_request(1.0) == b.next_request(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="client"):
            ClosedLoopPool(num_clients=0)
        with pytest.raises(ValueError, match="[Tt]hink"):
            ClosedLoopPool(think_seconds=-1.0)


class TestValidation:
    def test_unknown_arrival_model(self):
        with pytest.raises(ValueError, match="unknown arrival model"):
            make_arrivals("uniform", 100.0)

    def test_make_arrivals_forwards_model_kwargs(self):
        diurnal = make_arrivals("diurnal", 100.0, period_seconds=3.0)
        assert diurnal.period_seconds == 3.0

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            PoissonArrivals(0.0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            PoissonArrivals(10.0).generate(0.0)

    def test_mmpp_parameters(self):
        """The two state rates follow from the class constants and average
        to the nominal rate over one quiet-plus-burst cycle."""
        process = MMPPArrivals(10.0)
        quiet, burst = process.mean_quiet_seconds, process.mean_burst_seconds
        assert (process.burst_ratio, quiet, burst) == (8.0, 1.0, 0.25)
        assert process.burst_rate == process.burst_ratio * process.quiet_rate
        average = (process.quiet_rate * quiet + process.burst_rate * burst) / (
            quiet + burst
        )
        assert average == pytest.approx(10.0)

    def test_diurnal_parameters(self):
        with pytest.raises(ValueError, match="period"):
            DiurnalArrivals(10.0, period_seconds=0.0)
