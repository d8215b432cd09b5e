"""Tests for the quantile sketches: P² vs. the exact oracle.

The P² backend is validated differentially — same stream into both
backends, estimates must land within a small relative error of the exact
percentiles — plus the structural properties that make it worth having:
constant state size, exact answers while the startup buffer is small,
and exact streaming count/mean/min/max.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.p2_loop import P2Quantile as LoopP2Quantile

from repro.noc.stats import LatencySummary, percentile, summarize_latencies
from repro.obs import (
    DEFAULT_QUANTILES,
    SKETCH_BACKENDS,
    ExactSketch,
    P2Sketch,
    make_sketch,
)
from repro.obs.sketch import _PENDING


def lognormal_stream(n, seed=7):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 0.5) for _ in range(n)]


class TestP2Quantile:
    """The per-percentile P² estimates of a :class:`P2Sketch`."""

    def test_tracked_quantile_validated(self):
        sketch = P2Sketch()
        assert sketch.quantiles == DEFAULT_QUANTILES == (50.0, 95.0, 99.0)
        for q in (-5.0, 1.0, 150.0):
            with pytest.raises(ValueError, match="not tracked"):
                sketch.quantile(q)

    def test_empty_answers_zero(self):
        sketch = P2Sketch()
        assert [sketch.quantile(q) for q in DEFAULT_QUANTILES] == [0.0] * 3

    def test_small_streams_answer_exactly(self):
        # Up to five observations the startup buffer holds everything,
        # so each estimate IS the exact percentile.
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        for n in range(1, 6):
            sketch = P2Sketch()
            for v in values[:n]:
                sketch.add(v)
            for q in DEFAULT_QUANTILES:
                assert sketch.quantile(q) == percentile(values[:n], q)
            assert sketch.count == n

    def test_converges_on_a_long_stream(self):
        values = lognormal_stream(20_000)
        sketch = P2Sketch()
        for v in values:
            sketch.add(v)
        for q in DEFAULT_QUANTILES:
            exact = percentile(values, q)
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.02)

    def test_handles_a_sorted_stream(self):
        # Monotone input is the adversarial case for marker estimators.
        sketch = P2Sketch()
        for v in range(10_000):
            sketch.add(float(v))
        assert sketch.quantile(99.0) == pytest.approx(
            percentile(list(range(10_000)), 99.0), rel=0.05
        )


class TestP2Sketch:
    def test_streaming_moments_are_exact(self):
        values = lognormal_stream(5_000)
        sketch = P2Sketch()
        for v in values:
            sketch.add(v)
        assert sketch.count == len(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.quantile(0) == min(values)
        assert sketch.quantile(100) == max(values)

    def test_state_size_is_constant(self):
        sketch = P2Sketch()
        baseline = sketch.state_size
        for v in lognormal_stream(10_000):
            sketch.add(v)
        # Five heights, positions and desired positions per estimator, four
        # exact accumulators and the 32-observation pending buffer.
        assert sketch.state_size == baseline == 15 * len(DEFAULT_QUANTILES) + 36

    def test_untracked_quantile_raises(self):
        sketch = P2Sketch()
        sketch.add(1.0)
        with pytest.raises(ValueError, match="not tracked"):
            sketch.quantile(90.0)

    def test_empty_summary_is_all_zero(self):
        summary = P2Sketch().summary()
        assert summary.count == 0
        assert summary.mean == summary.p50 == summary.p99 == summary.max == 0.0

    def test_summary_tracks_exact_within_tolerance(self):
        values = lognormal_stream(20_000)
        sketch = P2Sketch()
        oracle = ExactSketch()
        for v in values:
            sketch.add(v)
            oracle.add(v)
        approx, exact = sketch.summary(), oracle.summary()
        assert approx.count == exact.count
        assert approx.mean == pytest.approx(exact.mean)
        assert approx.max == exact.max
        assert approx.p50 == pytest.approx(exact.p50, rel=0.02)
        assert approx.p95 == pytest.approx(exact.p95, rel=0.02)
        assert approx.p99 == pytest.approx(exact.p99, rel=0.02)


class TestExactSketch:
    def test_summary_matches_summarize_latencies(self):
        values = lognormal_stream(500)
        sketch = ExactSketch()
        for v in values:
            sketch.add(v)
        assert sketch.summary() == summarize_latencies(values)
        assert sketch.values == values
        assert sketch.state_size == len(values)

    def test_empty_sketch_is_all_zero(self):
        sketch = ExactSketch()
        assert sketch.count == 0
        assert sketch.mean == sketch.min == sketch.max == 0.0
        assert sketch.quantile(99.0) == 0.0
        assert sketch.summary().count == 0


class TestMakeSketch:
    def test_backends_registered(self):
        assert set(SKETCH_BACKENDS) == {"exact", "p2"}
        assert isinstance(make_sketch("exact"), ExactSketch)
        assert isinstance(make_sketch("p2"), P2Sketch)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown sketch backend"):
            make_sketch("hdr")

    def test_backend_attribute_round_trips(self):
        for backend in SKETCH_BACKENDS:
            assert make_sketch(backend).backend == backend


class TestSummarizeLatenciesRouting:
    """summarize_latencies accepts a sketch and routes through summary()."""

    def test_exact_sketch_route_is_differential_identity(self):
        values = lognormal_stream(1_000)
        sketch = ExactSketch()
        for v in values:
            sketch.add(v)
        assert summarize_latencies(sketch) == summarize_latencies(values)

    def test_p2_sketch_route_uses_the_streaming_state(self):
        values = lognormal_stream(10_000)
        sketch = P2Sketch()
        for v in values:
            sketch.add(v)
        routed = summarize_latencies(sketch)
        exact = summarize_latencies(values)
        assert routed == sketch.summary()
        assert routed.p99 == pytest.approx(exact.p99, rel=0.02)

    def test_plain_sequences_still_work(self):
        assert summarize_latencies([1.0, 2.0, 3.0]).count == 3
        assert summarize_latencies([]).count == 0


def _bits(values):
    """Floats as exact bit patterns (``-0.0`` and ``0.0`` differ)."""
    return [float(v).hex() for v in values]


def _oracle_state(estimator):
    return (
        _bits(estimator._heights),
        _bits(estimator._positions),
        _bits(estimator._desired),
    )


def _library_state(markers):
    heights, positions, desired, _ = markers
    return _bits(heights), _bits(positions), _bits(desired)


class TestLoopOracle:
    """The fused P² step against the per-estimator loop it replaced.

    Streams are generated from a seed: lengths 0-3000, values drawn from
    a small pool (ties), from a range including negatives, or copied
    from a current marker height of the oracle.  After every observation
    the marker heights, positions and desired positions of each
    :class:`P2Sketch` estimator (one per percentile in
    :data:`DEFAULT_QUANTILES`) must equal the oracle's (exact bit
    patterns at the end of the stream), and so must the final estimates
    and ``summary()``.
    """

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(0, 3000),
        pool=st.sampled_from([0, 2, 7, 40]),
        negative=st.booleans(),
        copy_rate=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_matches_the_loop_oracle(self, seed, length, pool, negative, copy_rate):
        rng = random.Random(seed)
        low = -50.0 if negative else 0.0
        values = [round(rng.uniform(low, 50.0), 1) for _ in range(pool)]
        oracles = [LoopP2Quantile(q) for q in DEFAULT_QUANTILES]
        sketch = P2Sketch()
        total = 0.0
        for step in range(length):
            if step >= 5 and rng.random() < copy_rate:
                value = rng.choice(rng.choice(oracles)._heights)
            elif values:
                value = rng.choice(values)
            else:
                value = rng.uniform(low, 50.0)
            total += value
            sketch.add(value)
            for oracle, markers in zip(oracles, sketch._markers):
                oracle.add(value)
                state = (oracle._heights, oracle._positions, oracle._desired)
                assert markers[:3] == state
        for oracle, markers in zip(oracles, sketch._markers):
            assert _library_state(markers) == _oracle_state(oracle)
            assert sketch.count == oracle.count == length
            assert _bits([sketch.quantile(oracle.q)]) == _bits([oracle.value])
        by_q = {o.q: o.value for o in oracles}
        expected = (
            LatencySummary(
                count=length,
                mean=total / length,
                p50=by_q[50.0],
                p95=by_q[95.0],
                p99=by_q[99.0],
                max=sketch.max,
            )
            if length
            else LatencySummary(
                count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0
            )
        )
        assert sketch.summary() == expected


def _sketch_state(sketch):
    """Every estimator's state as bit patterns, read without a flush."""
    return [_library_state(markers) for markers in sketch._estimators]


def _draw_stream(rng, length, pool, negative, copy_rate, oracles):
    """Yield a stream as :class:`TestLoopOracle` draws it, feeding
    ``oracles`` each value before the next is drawn (copies read their
    current marker heights)."""
    low = -50.0 if negative else 0.0
    values = [round(rng.uniform(low, 50.0), 1) for _ in range(pool)]
    for step in range(length):
        if step >= 5 and rng.random() < copy_rate:
            value = rng.choice(rng.choice(oracles)._heights)
        elif values:
            value = rng.choice(values)
        else:
            value = rng.uniform(low, 50.0)
        for oracle in oracles:
            oracle.add(value)
        yield value


class _Exact:
    """Count, sum, min and max folded one observation at a time."""

    def __init__(self):
        self.count, self.total, self.min, self.max = 0, 0.0, 0.0, 0.0

    def add(self, value):
        if self.count == 0:
            self.min = self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value


#: Reads that flush: every :class:`P2Sketch` accessor.
_SKETCH_READS = ("count", "mean", "min", "max", "quantile", "summary", "_markers")


def _check_read(rng, sketch, oracles, exact):
    """Read one random accessor and compare it, then the whole state,
    with the oracles bit for bit."""
    name = rng.choice(_SKETCH_READS)
    oracle = rng.choice(oracles)
    if name == "count":
        assert sketch.count == exact.count
    elif name == "mean":
        assert _bits([sketch.mean]) == _bits([exact.total / exact.count])
    elif name == "min":
        assert _bits([sketch.min]) == _bits([exact.min])
    elif name == "max":
        assert _bits([sketch.max]) == _bits([exact.max])
    elif name == "quantile":
        assert _bits([sketch.quantile(oracle.q)]) == _bits([oracle.value])
    elif name == "summary":
        by_q = {o.q: o.value for o in oracles}
        assert sketch.summary() == LatencySummary(
            count=exact.count,
            mean=exact.total / exact.count,
            p50=by_q[50.0],
            p95=by_q[95.0],
            p99=by_q[99.0],
            max=exact.max,
        )
    else:
        assert [_library_state(m) for m in sketch._markers] == [
            _oracle_state(o) for o in oracles
        ]
    assert not sketch._pending
    assert _sketch_state(sketch) == [_oracle_state(o) for o in oracles]


class TestBufferedFlush:
    """The pending buffer against the per-observation loop oracle.

    :class:`TestLoopOracle` reads after every observation, so each flush
    holds one value.  Here a random accessor is read at random gaps, so
    flushes hold anywhere from 1 to ``_PENDING`` values and some cross
    the five-observation startup.  At each read the answer and the whole
    estimator state (read without flushing, so the accessor itself must
    have flushed) must equal the oracle's bit for bit, and so must
    everything at the end of the stream.
    """

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(0, 3000),
        pool=st.sampled_from([0, 2, 7, 40]),
        negative=st.booleans(),
        copy_rate=st.sampled_from([0.0, 0.05, 0.3]),
        max_gap=st.sampled_from([3, 12, 40, 100]),
    )
    def test_random_reads_match_the_loop_oracle(
        self, seed, length, pool, negative, copy_rate, max_gap
    ):
        rng = random.Random(seed)
        oracles = [LoopP2Quantile(q) for q in DEFAULT_QUANTILES]
        sketch = P2Sketch()
        exact = _Exact()
        next_read = rng.randint(1, max_gap)
        stream = _draw_stream(rng, length, pool, negative, copy_rate, oracles)
        for value in stream:
            sketch.add(value)
            exact.add(value)
            if exact.count == next_read:
                _check_read(rng, sketch, oracles, exact)
                next_read += rng.randint(1, max_gap)
        assert sketch.count == length
        assert _sketch_state(sketch) == [_oracle_state(o) for o in oracles]
        assert _bits([sketch.min, sketch.max]) == _bits([exact.min, exact.max])
        assert _bits([sketch.mean]) == _bits(
            [exact.total / length if length else 0.0]
        )

    def test_every_flush_size_from_every_start(self):
        """One flush of each size 1.._PENDING after 0-6 one-value flushes,
        so flushes start before, at and after the startup's end."""
        rng = random.Random(11)
        for start in range(7):
            for size in range(1, _PENDING + 1):
                oracles = [LoopP2Quantile(q) for q in DEFAULT_QUANTILES]
                sketch = P2Sketch()
                exact = _Exact()
                stream = _draw_stream(rng, start + size + 40, 7, True, 0.3, oracles)
                for step, value in enumerate(stream, 1):
                    sketch.add(value)
                    exact.add(value)
                    if step <= start or step == start + size:
                        assert len(sketch._pending) == (
                            1 if step <= start else size % _PENDING
                        )
                        _check_read(rng, sketch, oracles, exact)
                _check_read(rng, sketch, oracles, exact)

    def test_signed_zero_ties_keep_the_first_seen(self):
        """min/max keep the first of equal values, as the per-observation
        fold does: ``0.0`` and ``-0.0`` compare equal but differ in bits."""
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            sketch = P2Sketch()
            exact = _Exact()
            for value in (first, second) * 20 + (1.0, second, -1.0):
                sketch.add(value)
                exact.add(value)
                if exact.count in (1, 7, 38):
                    assert _bits([sketch.min, sketch.max]) == _bits(
                        [exact.min, exact.max]
                    )
            assert _bits([sketch.min, sketch.max]) == _bits([exact.min, exact.max])
