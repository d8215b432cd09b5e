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
  P² markers per tracked percentile, all updated by one fused step per
  observation, plus exact count / mean / min / max, which are trivially
  streamable).  :class:`P2Quantile` tracks one percentile with the same
  step.
* ``"exact"`` — :class:`ExactSketch`, which stores every value and
  answers through :func:`repro.noc.stats.percentile`.  It is the
  differential oracle the P² backend is tested against, and the default
  serving backend so existing reports stay bit-identical.

Both satisfy the small informal ``add / count / mean / max / quantile /
summary`` protocol; :func:`repro.noc.stats.summarize_latencies` accepts
either (it routes a sketch through its own :meth:`~P2Sketch.summary`).
"""

from __future__ import annotations

from typing import Sequence

from repro.noc.stats import LatencySummary, percentile

#: Registered sketch backends (the ``metrics_backend`` scenario knob).
SKETCH_BACKENDS = ("exact", "p2")

#: Percentiles a default sketch tracks — exactly the ones
#: :class:`~repro.noc.stats.LatencySummary` reports.
DEFAULT_QUANTILES = (50.0, 95.0, 99.0)


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


def _p2_update(markers, value: float) -> None:
    """One P² step (after startup) for every estimator in ``markers``.

    Each estimator is a ``(heights, positions, desired, rates)`` tuple of
    :func:`_p2_markers`.  The cell search and the increments are written
    out per cell; the nested ``<=`` tests take the same branch as the
    textbook scan (``k`` grows while ``heights[k + 1] <= value``), so
    every float operation happens in the same order as the loop form.
    """
    for h, n, d, r in markers:
        # Locate the cell, stretching the extreme markers if needed, and
        # shift the positions of every marker above it.
        if value < h[0]:
            h[0] = value
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
            n[4] += 1.0
        elif value >= h[4]:
            h[4] = value
            n[4] += 1.0
        elif h[1] <= value:
            if h[2] <= value:
                if not h[3] <= value:
                    n[3] += 1.0
                n[4] += 1.0
            else:
                n[2] += 1.0
                n[3] += 1.0
                n[4] += 1.0
        else:
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
            n[4] += 1.0
        d[1] += r[1]
        d[2] += r[2]
        d[3] += r[3]
        d[4] += r[4]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if delta >= 1.0 else -1.0
                candidate = h[i] + sign / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + sign)
                    * (h[i + 1] - h[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - sign)
                    * (h[i] - h[i - 1])
                    / (n[i] - n[i - 1])
                )
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabola left the bracket: fall back to linear
                    step = int(sign)
                    h[i] += sign * (h[i + step] - h[i]) / (n[i + step] - n[i])
                n[i] += sign


def _p2_estimate(count: int, heights: list[float], q: float) -> float:
    """The estimate after ``count`` observations (exact while buffered)."""
    if count == 0:
        return 0.0
    if count <= 5:
        return percentile(heights, q)
    return heights[2]


class P2Quantile:
    """One streaming quantile via the P² algorithm (five markers, O(1)).

    Tracks the ``q``-th percentile (``0 < q < 100``) of a stream without
    storing it: five marker heights approximate the quantile curve, and
    each observation nudges the markers toward their desired positions
    with a piecewise-parabolic (fallback: linear) interpolation step.

    Until five observations have arrived the estimator answers exactly
    from its startup buffer, so small streams lose nothing.
    """

    __slots__ = ("q", "_count", "_markers")

    def __init__(self, q: float) -> None:
        if not 0 < q < 100:
            raise ValueError(f"tracked quantile must be in (0, 100), got {q}")
        self.q = q
        self._count = 0
        self._markers = (_p2_markers(q),)

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self._count

    def add(self, value: float) -> None:
        """Absorb one observation in O(1)."""
        value = float(value)
        self._count += 1
        if self._count <= 5:
            _p2_startup(self._markers, value)
        else:
            _p2_update(self._markers, value)

    @property
    def value(self) -> float:
        """Current quantile estimate (exact while the buffer is small)."""
        return _p2_estimate(self._count, self._markers[0][0], self.q)


class P2Sketch:
    """Constant-memory distribution summary: P² markers per percentile.

    Attributes:
        quantiles: the tracked percentiles (each owns five P² markers).
            :meth:`quantile` answers only these (plus 0 and 100, which
            stream exactly); :meth:`summary` needs 50/95/99 tracked.
    """

    backend = "p2"

    __slots__ = ("quantiles", "_markers", "_count", "_sum", "_min", "_max")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not quantiles:
            raise ValueError("need at least one tracked quantile")
        self.quantiles = tuple(float(q) for q in quantiles)
        if len(set(self.quantiles)) != len(self.quantiles):
            raise ValueError(f"duplicate tracked quantiles in {quantiles}")
        # One (heights, positions, desired, rates) tuple per percentile,
        # in ``quantiles`` order: every observation updates them all in
        # one :func:`_p2_update` pass.
        self._markers = tuple(_p2_markers(q) for q in self.quantiles)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Streaming mean (exact)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (exact; 0 for an empty sketch)."""
        return self._min

    @property
    def max(self) -> float:
        """Largest observation (exact; 0 for an empty sketch)."""
        return self._max

    @property
    def state_size(self) -> int:
        """Stored floats — constant in the stream length (the whole point)."""
        # 5 heights + 5 positions + 5 desired positions per estimator,
        # plus the four exact accumulators.
        return 15 * len(self._markers) + 4

    def add(self, value: float) -> None:
        """Absorb one observation into every tracked estimator, O(1)."""
        value = float(value)
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value
        if self._count <= 5:
            _p2_startup(self._markers, value)
        else:
            _p2_update(self._markers, value)

    def quantile(self, q: float) -> float:
        """Estimate of the ``q``-th percentile (must be tracked, 0, or 100)."""
        if q == 0:
            return self._min
        if q == 100:
            return self._max
        if float(q) not in self.quantiles:
            raise ValueError(
                f"percentile {q} is not tracked by this sketch "
                f"(tracked: {self.quantiles}); construct it with "
                f"quantiles=(..., {q})"
            )
        index = self.quantiles.index(float(q))
        return _p2_estimate(
            self._count, self._markers[index][0], self.quantiles[index]
        )

    def summary(self) -> LatencySummary:
        """The standard p50/p95/p99 summary, from the streaming state."""
        if self._count == 0:
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

    __slots__ = ("quantiles", "_values")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.quantiles = tuple(float(q) for q in quantiles)
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


def make_sketch(
    backend: str = "exact", quantiles: Sequence[float] = DEFAULT_QUANTILES
):
    """Instantiate a registered sketch backend by name.

    ``"exact"`` answers exactly in O(n) memory; ``"p2"`` answers within a
    small relative error in O(1) memory.  Both expose ``add`` /
    ``count`` / ``mean`` / ``max`` / ``quantile`` / ``summary``.
    """
    if backend == "exact":
        return ExactSketch(quantiles)
    if backend == "p2":
        return P2Sketch(quantiles)
    raise ValueError(
        f"unknown sketch backend {backend!r}; choose from {SKETCH_BACKENDS}"
    )
