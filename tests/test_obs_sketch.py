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
    P2Quantile,
    P2Sketch,
    make_sketch,
)
from repro.obs.sketch import _PENDING


def lognormal_stream(n, seed=7):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 0.5) for _ in range(n)]


class TestP2Quantile:
    def test_tracked_quantile_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(100.0)

    def test_empty_answers_zero(self):
        assert P2Quantile(50.0).value == 0.0

    def test_small_streams_answer_exactly(self):
        # Up to five observations the startup buffer holds everything,
        # so the estimate IS the exact percentile.
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        for n in range(1, 6):
            estimator = P2Quantile(95.0)
            for v in values[:n]:
                estimator.add(v)
            assert estimator.value == percentile(values[:n], 95.0)
            assert estimator.count == n

    def test_converges_on_a_long_stream(self):
        values = lognormal_stream(20_000)
        for q in (50.0, 95.0, 99.0):
            estimator = P2Quantile(q)
            for v in values:
                estimator.add(v)
            exact = percentile(values, q)
            assert estimator.value == pytest.approx(exact, rel=0.02)

    def test_handles_a_sorted_stream(self):
        # Monotone input is the adversarial case for marker estimators.
        estimator = P2Quantile(99.0)
        for v in range(10_000):
            estimator.add(float(v))
        assert estimator.value == pytest.approx(
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
        sketch = P2Sketch(quantiles=(50.0,))
        sketch.add(1.0)
        with pytest.raises(ValueError, match="not tracked"):
            sketch.quantile(99.0)

    def test_needs_at_least_one_quantile(self):
        with pytest.raises(ValueError, match="at least one"):
            P2Sketch(quantiles=())

    def test_duplicate_quantiles_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            P2Sketch(quantiles=(50.0, 50.0))

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


#: Tracked-percentile sets: one percentile alone, or five including the
#: 50/95/99 a summary needs.
_ONE = st.sampled_from([0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9]).map(
    lambda q: (q,)
)
_FIVE = st.lists(
    st.sampled_from([0.5, 5.0, 10.0, 33.3, 66.7, 75.0, 90.0, 99.9]),
    min_size=2, max_size=2, unique=True,
).map(lambda extra: (50.0, 95.0, 99.0, *extra))


class TestLoopOracle:
    """The fused P² step against the per-estimator loop it replaced.

    Streams are generated from a seed: lengths 0-3000, values drawn from
    a small pool (ties), from a range including negatives, or copied
    from a current marker height of the oracle.  After every observation
    the marker heights, positions and desired positions of
    :class:`P2Quantile` and of each :class:`P2Sketch` estimator must
    equal the oracle's (exact bit patterns at the end of the stream), and
    so must the final estimates and ``summary()``.
    """

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(0, 3000),
        pool=st.sampled_from([0, 2, 7, 40]),
        negative=st.booleans(),
        copy_rate=st.sampled_from([0.0, 0.05, 0.3]),
        quantiles=st.one_of(_ONE, _FIVE),
    )
    def test_matches_the_loop_oracle(
        self, seed, length, pool, negative, copy_rate, quantiles
    ):
        rng = random.Random(seed)
        low = -50.0 if negative else 0.0
        values = [round(rng.uniform(low, 50.0), 1) for _ in range(pool)]
        oracles = [LoopP2Quantile(q) for q in quantiles]
        singles = [P2Quantile(q) for q in quantiles]
        sketch = P2Sketch(quantiles)
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
            for oracle, single, markers in zip(
                oracles, singles, sketch._markers
            ):
                oracle.add(value)
                single.add(value)
                state = (oracle._heights, oracle._positions, oracle._desired)
                assert single._markers[0][:3] == markers[:3] == state
        for oracle, single, markers in zip(oracles, singles, sketch._markers):
            assert _library_state(single._markers[0]) == _oracle_state(oracle)
            assert _library_state(markers) == _oracle_state(oracle)
            assert single.count == oracle.count == length
            assert _bits([single.value]) == _bits([oracle.value])
            assert _bits([sketch.quantile(oracle.q)]) == _bits([oracle.value])
        if len(quantiles) == 5:
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


#: Reads that flush: every :class:`P2Sketch` accessor (``summary`` needs
#: 50/95/99 tracked) and every :class:`P2Quantile` one.
_SKETCH_READS = ("count", "mean", "min", "max", "quantile", "_markers")
_SINGLE_READS = ("count", "value", "_markers")


def _check_read(rng, sketch, single, oracles, exact):
    """Read one random accessor of each object and compare it, then the
    whole state, with the oracles bit for bit."""
    reads = _SKETCH_READS + (("summary",) if len(oracles) == 5 else ())
    name = rng.choice(reads)
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

    name = rng.choice(_SINGLE_READS)
    if name == "count":
        assert single.count == exact.count
    elif name == "value":
        assert _bits([single.value]) == _bits([oracles[0].value])
    else:
        assert _library_state(single._markers[0]) == _oracle_state(oracles[0])


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
        quantiles=st.one_of(_ONE, _FIVE),
        max_gap=st.sampled_from([3, 12, 40, 100]),
    )
    def test_random_reads_match_the_loop_oracle(
        self, seed, length, pool, negative, copy_rate, quantiles, max_gap
    ):
        rng = random.Random(seed)
        oracles = [LoopP2Quantile(q) for q in quantiles]
        sketch = P2Sketch(quantiles)
        single = P2Quantile(quantiles[0])
        exact = _Exact()
        next_read = rng.randint(1, max_gap)
        stream = _draw_stream(rng, length, pool, negative, copy_rate, oracles)
        for value in stream:
            sketch.add(value)
            single.add(value)
            exact.add(value)
            if exact.count == next_read:
                _check_read(rng, sketch, single, oracles, exact)
                next_read += rng.randint(1, max_gap)
        assert sketch.count == single.count == length
        assert _sketch_state(sketch) == [_oracle_state(o) for o in oracles]
        assert _library_state(single._markers[0]) == _oracle_state(oracles[0])
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
                single = P2Quantile(DEFAULT_QUANTILES[0])
                exact = _Exact()
                stream = _draw_stream(rng, start + size + 40, 7, True, 0.3, oracles)
                for step, value in enumerate(stream, 1):
                    sketch.add(value)
                    single.add(value)
                    exact.add(value)
                    if step <= start or step == start + size:
                        assert len(sketch._pending) == (
                            1 if step <= start else size % _PENDING
                        )
                        _check_read(rng, sketch, single, oracles, exact)
                _check_read(rng, sketch, single, oracles, exact)

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
