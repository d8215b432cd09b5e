"""Reference copy of the per-estimator P² update loop.

``P2Quantile`` as ``repro.obs.sketch`` shipped it before ``P2Sketch.add``
updated every tracked estimator in one unrolled step: one object per
percentile, each with its own startup check, cell search and ``range``
loops over the marker lists.  It is kept verbatim so the differential
test in ``tests/test_obs_sketch.py`` can assert that the library's marker
heights, positions, desired positions and summaries match it bit for bit.
"""

from __future__ import annotations

from repro.noc.stats import percentile


class P2Quantile:
    """One streaming quantile via the P² algorithm (five markers, O(1)).

    Tracks the ``q``-th percentile (``0 < q < 100``) of a stream without
    storing it: five marker heights approximate the quantile curve, and
    each observation nudges the markers toward their desired positions
    with a piecewise-parabolic (fallback: linear) interpolation step.

    Until five observations have arrived the estimator answers exactly
    from its startup buffer, so small streams lose nothing.
    """

    __slots__ = ("q", "_count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float) -> None:
        if not 0 < q < 100:
            raise ValueError(f"tracked quantile must be in (0, 100), got {q}")
        self.q = q
        self._count = 0
        # Until the 5-observation startup completes, _heights doubles as
        # the (sorted) sample buffer.
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        p = q / 100.0
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._rates = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self._count

    def add(self, value: float) -> None:
        """Absorb one observation in O(1)."""
        value = float(value)
        self._count += 1
        h = self._heights
        if self._count <= 5:
            # Startup: collect and keep sorted; the 5th arrival seeds the
            # markers with the five order statistics.
            lo, hi = 0, len(h)
            while lo < hi:
                mid = (lo + hi) // 2
                if h[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            h.insert(lo, value)
            return

        n = self._positions
        # Locate the cell, stretching the extreme markers if needed.
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = 0
            while k < 3 and h[k + 1] <= value:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        d = self._desired
        r = self._rates
        for i in range(1, 5):
            d[i] += r[i]
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

    @property
    def value(self) -> float:
        """Current quantile estimate (exact while the buffer is small)."""
        if self._count == 0:
            return 0.0
        if self._count <= 5:
            return percentile(self._heights, self.q)
        return self._heights[2]
