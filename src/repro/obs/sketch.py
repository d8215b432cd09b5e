"""Streaming quantile sketches: constant-memory latency distributions.

The serving engine's latency accounting historically kept one Python
float per completed request, which is O(requests) memory — fine for a
two-second simulation, fatal for the million-request traces the serving
roadmap targets.  This module provides the drop-in alternative: the
P² (*piecewise-parabolic*, Jain & Chlamtac 1985) streaming quantile
estimator, which maintains five markers per tracked quantile and updates
them in O(1) per observation, so a whole latency distribution summary
costs a fixed few hundred bytes no matter how many samples stream
through.

Two interchangeable backends, chosen by name through ``backend=``; both
are in use, so the switch selects behaviour, not a test reference:

* ``"p2"`` — :class:`P2Sketch`, the constant-memory estimator (five
  P² markers for each of the fixed :data:`DEFAULT_QUANTILES` plus exact
  count / mean / min / max, which are trivially streamable).  ``add``
  appends to a fixed pending buffer of ``_PENDING`` observations; a
  full buffer, or any read, flushes it through one :func:`_p2_run` loop
  per estimator, with the same float operations in the same order as
  one P² step per observation.
* ``"exact"`` — :class:`ExactSketch`, which stores every value and
  answers through :func:`repro.noc.stats.percentile`.  It is the
  differential oracle the P² backend is tested against, and the default
  serving backend so existing reports stay bit-identical.

Both satisfy the small informal ``add / count / mean / max / quantile /
summary`` protocol; :func:`repro.noc.stats.summarize_latencies` accepts
either (it routes a sketch through its own :meth:`~P2Sketch.summary`).
"""

from __future__ import annotations

from repro.noc.stats import LatencySummary, percentile

#: Registered sketch backends (the ``metrics_backend`` scenario knob).
SKETCH_BACKENDS = ("exact", "p2")

#: Percentiles a :class:`P2Sketch` tracks — exactly the ones
#: :class:`~repro.noc.stats.LatencySummary` reports.
DEFAULT_QUANTILES = (50.0, 95.0, 99.0)

#: Observations a :class:`P2Sketch` holds before running its P² steps: a
#: fixed buffer (memory stays O(1)) that lets one flush run each
#: estimator over the whole batch with its markers in local variables.
_PENDING = 32


def _p2_markers(q: float) -> tuple[list[float], list[float], list[float], tuple]:
    """Fresh P² state for the ``q``-th percentile: marker heights (the
    sorted startup buffer until five observations), positions, desired
    positions and the per-observation desired-position increments."""
    p = q / 100.0
    return (
        [],
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
        (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0),
    )


def _p2_startup(markers, value: float) -> None:
    """Insert one of the first five observations into each sorted buffer."""
    for h, _, _, _ in markers:
        lo, hi = 0, len(h)
        while lo < hi:
            mid = (lo + hi) // 2
            if h[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        h.insert(lo, value)


def _p2_run(markers, values: list[float]) -> None:
    """P² steps (after startup) for ``values``, one estimator at a time.

    Each estimator is a ``(heights, positions, desired, rates)`` tuple of
    :func:`_p2_markers`.  Its five heights, five positions, four moving
    desired positions and four rates live in local variables for the
    whole batch and are written back once.  No estimator reads another's
    state, so running the batch through one estimator before the next
    does every float operation of the per-observation loop in the same
    order.  The nested ``<=`` tests of the cell search take the same
    branch as the textbook scan (``k`` grows while
    ``heights[k + 1] <= value``), and the three interior-marker nudges
    are written out, each falling back to a linear step toward the
    neighbour on the side of its sign.
    """
    for h, n, d, r in markers:
        h0, h1, h2, h3, h4 = h
        n0, n1, n2, n3, n4 = n
        _, d1, d2, d3, d4 = d
        _, r1, r2, r3, r4 = r
        for value in values:
            # Locate the cell, stretching the extreme markers if needed,
            # and shift the positions of every marker above it.
            if value < h0:
                h0 = value
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
                n4 += 1.0
            elif value >= h4:
                h4 = value
                n4 += 1.0
            elif h1 <= value:
                if h2 <= value:
                    if not h3 <= value:
                        n3 += 1.0
                    n4 += 1.0
                else:
                    n2 += 1.0
                    n3 += 1.0
                    n4 += 1.0
            else:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
                n4 += 1.0
            d1 += r1
            d2 += r2
            d3 += r3
            d4 += r4
            # Nudge the three interior markers toward their desired
            # positions (parabolic; linear if that leaves the bracket).
            delta = d1 - n1
            if (delta >= 1.0 and n2 - n1 > 1.0) or (
                delta <= -1.0 and n0 - n1 < -1.0
            ):
                sign = 1.0 if delta >= 1.0 else -1.0
                candidate = h1 + sign / (n2 - n0) * (
                    (n1 - n0 + sign) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - sign) * (h1 - h0) / (n1 - n0)
                )
                if h0 < candidate < h2:
                    h1 = candidate
                elif sign > 0.0:
                    h1 += sign * (h2 - h1) / (n2 - n1)
                else:
                    h1 += sign * (h0 - h1) / (n0 - n1)
                n1 += sign
            delta = d2 - n2
            if (delta >= 1.0 and n3 - n2 > 1.0) or (
                delta <= -1.0 and n1 - n2 < -1.0
            ):
                sign = 1.0 if delta >= 1.0 else -1.0
                candidate = h2 + sign / (n3 - n1) * (
                    (n2 - n1 + sign) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - sign) * (h2 - h1) / (n2 - n1)
                )
                if h1 < candidate < h3:
                    h2 = candidate
                elif sign > 0.0:
                    h2 += sign * (h3 - h2) / (n3 - n2)
                else:
                    h2 += sign * (h1 - h2) / (n1 - n2)
                n2 += sign
            delta = d3 - n3
            if (delta >= 1.0 and n4 - n3 > 1.0) or (
                delta <= -1.0 and n2 - n3 < -1.0
            ):
                sign = 1.0 if delta >= 1.0 else -1.0
                candidate = h3 + sign / (n4 - n2) * (
                    (n3 - n2 + sign) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - sign) * (h3 - h2) / (n3 - n2)
                )
                if h2 < candidate < h4:
                    h3 = candidate
                elif sign > 0.0:
                    h3 += sign * (h4 - h3) / (n4 - n3)
                else:
                    h3 += sign * (h2 - h3) / (n2 - n3)
                n3 += sign
        h[:] = h0, h1, h2, h3, h4
        n[1:] = n1, n2, n3, n4
        d[1:] = d1, d2, d3, d4


def _p2_estimate(count: int, heights: list[float], q: float) -> float:
    """The estimate after ``count`` observations (exact while buffered)."""
    if count == 0:
        return 0.0
    if count <= 5:
        return percentile(heights, q)
    return heights[2]


class P2Sketch:
    """Constant-memory distribution summary: P² markers per percentile.

    :meth:`add` appends to a pending buffer of ``_PENDING`` observations.
    The buffer is flushed into the exact accumulators and every estimator
    when it fills and before any read, so every answer is the one the
    observation-at-a-time update gives, bit for bit.
    """

    backend = "p2"

    #: The tracked percentiles, each owning five P² markers.
    #: :meth:`quantile` answers only these (plus 0 and 100, which stream
    #: exactly).
    quantiles = DEFAULT_QUANTILES

    __slots__ = ("_estimators", "_pending", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        # One (heights, positions, desired, rates) tuple per percentile,
        # in ``quantiles`` order.
        self._estimators = tuple(_p2_markers(q) for q in self.quantiles)
        # Observations not yet in the state below, in arrival order.
        self._pending: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def _flush(self) -> None:
        """Fold the pending observations into the state, in arrival order:
        the exact accumulators (one sequential ``+=`` each, first-seen
        min/max), then every estimator."""
        pending = self._pending
        if not pending:
            return
        if self._count == 0:
            self._min = self._max = pending[0]
        # min/max scan their arguments in order and replace on a strict
        # comparison, exactly as a per-observation ``if value < min``.
        self._min = min(self._min, *pending)
        self._max = max(self._max, *pending)
        total = self._sum
        for value in pending:
            total += value
        self._sum = total
        # The first five observations overall fill the sorted startup
        # buffers; the rest are P² steps.
        steps = pending
        if self._count < 5:
            startup = 5 - self._count
            for value in pending[:startup]:
                _p2_startup(self._estimators, value)
            steps = pending[startup:]
        if steps:
            _p2_run(self._estimators, steps)
        self._count += len(pending)
        pending.clear()

    @property
    def _markers(self):
        """Every estimator's P² state, pending observations absorbed."""
        self._flush()
        return self._estimators

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        self._flush()
        return self._count

    @property
    def mean(self) -> float:
        """Streaming mean (exact)."""
        self._flush()
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (exact; 0 for an empty sketch)."""
        self._flush()
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (exact; 0 for an empty sketch)."""
        self._flush()
        return self._max

    @property
    def state_size(self) -> int:
        """Stored floats — constant in the stream length (the whole point)."""
        # 5 heights + 5 positions + 5 desired positions per estimator,
        # the four exact accumulators and the pending buffer.
        return 15 * len(self._estimators) + 4 + _PENDING

    def add(self, value: float) -> None:
        """Absorb one observation into every tracked estimator, O(1)
        amortised: a full pending buffer is flushed."""
        pending = self._pending
        pending.append(float(value))
        if len(pending) == _PENDING:
            self._flush()

    def quantile(self, q: float) -> float:
        """Estimate of the ``q``-th percentile (must be tracked, 0, or 100)."""
        if q == 0:
            return self.min
        if q == 100:
            return self.max
        if q not in self.quantiles:
            raise ValueError(
                f"percentile {q} is not tracked by this sketch "
                f"(tracked: {self.quantiles})"
            )
        index = self.quantiles.index(q)
        return _p2_estimate(
            self.count, self._estimators[index][0], self.quantiles[index]
        )

    def summary(self) -> LatencySummary:
        """The standard p50/p95/p99 summary, from the streaming state."""
        if self.count == 0:
            return LatencySummary(
                count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0
            )
        return LatencySummary(
            count=self._count,
            mean=self.mean,
            p50=self.quantile(50.0),
            p95=self.quantile(95.0),
            p99=self.quantile(99.0),
            max=self._max,
        )


class ExactSketch:
    """Store-everything oracle with the same protocol as :class:`P2Sketch`.

    Memory is O(observations); answers are exact (numpy-linear
    interpolation via :func:`repro.noc.stats.percentile`).  This is both
    the differential baseline the P² backend is benchmarked against and
    the default serving backend, keeping pre-telemetry reports
    bit-identical.
    """

    backend = "exact"

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Mean of the stored population."""
        return sum(self._values) / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0 for an empty sketch)."""
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0 for an empty sketch)."""
        return max(self._values) if self._values else 0.0

    @property
    def state_size(self) -> int:
        """Stored floats — grows with the stream (what P² avoids)."""
        return len(self._values)

    @property
    def values(self) -> list[float]:
        """The raw population (the oracle's whole reason to exist)."""
        return list(self._values)

    def add(self, value: float) -> None:
        """Store one observation."""
        self._values.append(float(value))

    def quantile(self, q: float) -> float:
        """Exact ``q``-th percentile of the stored population."""
        if not self._values:
            return 0.0
        return percentile(self._values, q)

    def summary(self) -> LatencySummary:
        """Exact summary, identical to ``summarize_latencies(values)``."""
        from repro.noc.stats import summarize_latencies

        return summarize_latencies(self._values)


def make_sketch(backend: str = "exact"):
    """Instantiate a registered sketch backend by name.

    ``"exact"`` answers exactly in O(n) memory; ``"p2"`` answers within a
    small relative error in O(1) memory.  Both expose ``add`` /
    ``count`` / ``mean`` / ``max`` / ``quantile`` / ``summary``.
    """
    if backend == "exact":
        return ExactSketch()
    if backend == "p2":
        return P2Sketch()
    raise ValueError(
        f"unknown sketch backend {backend!r}; choose from {SKETCH_BACKENDS}"
    )
