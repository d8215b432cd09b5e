"""Metrics core: a registry of counters/gauges/histograms + a time sampler.

The telemetry subsystem's data model, deliberately tiny and
simulation-native: metrics are driven by *simulated* time the engine
passes in, never a wall clock, so every export is a deterministic
function of the seeded scenario.

* :class:`Counter` / :class:`Gauge` — monotonically accumulated and
  last-write-wins scalars.
* :class:`Histogram` — a named distribution backed by a quantile sketch
  (:mod:`repro.obs.sketch`) that its owner built: a ``"p2"`` sketch
  keeps it O(1) memory, an ``"exact"`` one keeps it an oracle.
* :class:`MetricRegistry` — get-or-create access to counters and gauges
  by name, plus attached histograms; the engine owns one per run and
  fills it as it simulates.
* :class:`Sampler` — fixed simulated-time-interval snapshots of fleet
  state (ready/warming/busy/retiring, queue depth, admission tallies,
  utilization), sample-and-hold: each tick records the state that was
  current when simulated time crossed it.

:func:`export_metrics_jsonl` writes samples and final metric values as
JSON Lines — one self-describing object per line (``kind`` is
``sample`` / ``counter`` / ``gauge`` / ``histogram``), the format the
CLI's ``repro serve --metrics-out`` emits and CI validates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping


@dataclass
class Counter:
    """A monotonically increasing tally (events, requests, sheds)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative; counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins scalar (queue depth, fleet size, peak marks)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


class Histogram:
    """A named distribution, answered through its sketch."""

    def __init__(self, name: str, sketch: Any) -> None:
        self.name = name
        self.sketch = sketch

    def observe(self, value: float) -> None:
        """Absorb one observation."""
        self.sketch.add(value)

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self.sketch.count

    def summary(self):
        """The sketch's :class:`~repro.noc.stats.LatencySummary`."""
        return self.sketch.summary()


class MetricRegistry:
    """Get-or-create registry of named metrics, one per engine run.

    Names are unique across metric kinds — asking for a counter named
    like an existing gauge is a bug and raises.  Iteration yields metrics
    in insertion order, so exports are deterministic.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            return None
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        metric = self._get(name, Counter)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        metric = self._get(name, Gauge)
        if metric is None:
            metric = self._metrics[name] = Gauge(name)
        return metric

    def attach_histogram(self, name: str, sketch: Any) -> Histogram:
        """Register an externally-owned sketch under ``name``.

        The engine builds its latency sketches on the hot path and only
        hands them to the registry at report time; attaching avoids a
        copy and keeps the registry a pure naming layer.
        """
        if name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        metric = self._metrics[name] = Histogram(name, sketch)
        return metric

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> list[dict[str, Any]]:
        """All metrics as self-describing dicts (what the export writes)."""
        rows: list[dict[str, Any]] = []
        for metric in self:
            if isinstance(metric, Counter):
                rows.append(
                    {"kind": "counter", "name": metric.name, "value": metric.value}
                )
            elif isinstance(metric, Gauge):
                rows.append(
                    {"kind": "gauge", "name": metric.name, "value": metric.value}
                )
            else:
                rows.append(
                    {
                        "kind": "histogram",
                        "name": metric.name,
                        "backend": getattr(metric.sketch, "backend", "exact"),
                        **metric.summary().as_dict(),
                    }
                )
        return rows


class Sampler:
    """Fixed-interval time series of fleet state, sample-and-hold.

    The engine is event-driven, so state only changes at event times; a
    faithful fixed-cadence series therefore records, at each tick, the
    state that was in force when simulated time crossed that tick.  The
    engine guards the hot path with one comparison (``now >=
    sampler.next_time``) and calls :meth:`record` only when a tick is
    actually due; :meth:`record` then back-fills every elapsed tick with
    the held state.

    Memory is O(ticks) = O(horizon / interval), independent of request
    count.
    """

    def __init__(self, interval_seconds: float) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"sample interval must be positive, got {interval_seconds}"
            )
        self.interval_seconds = interval_seconds
        self.rows: list[dict[str, Any]] = []
        self._next = 0.0

    @property
    def next_time(self) -> float:
        """The next tick due — the engine's one-comparison hot-path guard."""
        return self._next

    def record(self, now: float, state: Mapping[str, Any]) -> None:
        """Fill every tick in ``(last recorded, now]`` with ``state``.

        ``state`` must be the fleet state *before* the event at ``now``
        applies — it is what was current while time advanced to here.
        """
        while self._next <= now:
            self.rows.append({"time": round(self._next, 9), **state})
            self._next += self.interval_seconds

    def __len__(self) -> int:
        return len(self.rows)


def export_metrics_jsonl(
    path: str | Path,
    registry: MetricRegistry,
    sampler: Sampler | None = None,
) -> Path:
    """Write samples then final metrics as JSON Lines; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        if sampler is not None:
            for row in sampler.rows:
                handle.write(
                    json.dumps({"kind": "sample", **row}, sort_keys=True) + "\n"
                )
        for row in registry.snapshot():
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path
