"""Telemetry subsystem: tracing, streaming metrics, and SLO analytics.

The observability layer for the serving stack (and anything else that
wants it).  Everything here is simulation-native — driven by simulated
time the caller passes in, deterministic from the seeded scenario, and
designed for the million-request scale the serving roadmap targets:

* :mod:`repro.obs.sketch` — P² streaming quantile sketches: latency
  percentiles in O(1) memory, or a store-everything exact sketch (the
  serving default) chosen by backend name.
* :mod:`repro.obs.metrics` — the :class:`~repro.obs.metrics
  .MetricRegistry` of counters, gauges, and sketch-backed histograms,
  plus the fixed-interval fleet-state :class:`~repro.obs.metrics
  .Sampler` and the JSONL metrics export.
* :mod:`repro.obs.trace` — per-request lifecycle spans recorded by a
  :class:`~repro.obs.trace.TraceRecorder` (zero-overhead
  :class:`~repro.obs.trace.NullRecorder` default; ``head:N`` /
  ``1-in-K`` / SLO-violators-only bounded sampling), exported as JSONL.
* :mod:`repro.obs.slo` — windowed SLO burn-rate analytics: how fast the
  error budget is being spent, when it ran out, and which tenant spent
  it.

The serving engine takes these as injected collaborators
(``ServingEngine(recorder=..., registry=..., sampler=...)``); the CLI
surfaces them as ``repro serve --trace-out / --metrics-out /
--trace-sample``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Sampler,
    export_metrics_jsonl,
)
from repro.obs.sketch import (
    DEFAULT_QUANTILES,
    SKETCH_BACKENDS,
    ExactSketch,
    P2Sketch,
    make_sketch,
)
from repro.obs.slo import BurnRateTracker, BurnWindow, SloBurnReport
from repro.obs.trace import (
    FLEET_CRASH,
    FLEET_RECOVER,
    FLEET_RESCUE,
    FLEET_SCALE,
    FLEET_SLOWDOWN,
    FLEET_WARMED,
    FLEET_ZONE_OUTAGE,
    SPAN_ADMIT,
    SPAN_ARRIVE,
    SPAN_DEPART,
    SPAN_DISPATCH,
    SPAN_ENQUEUE,
    SPAN_FAIL,
    SPAN_HEDGE_CANCELLED,
    SPAN_HEDGE_FIRED,
    SPAN_RETRY,
    SPAN_SHED,
    SPAN_TARPIT,
    TERMINAL_SPANS,
    TRACE_SAMPLE_MODES,
    MemoryTraceRecorder,
    NullRecorder,
    TraceRecorder,
    make_recorder,
)

__all__ = [
    "P2Sketch",
    "ExactSketch",
    "make_sketch",
    "SKETCH_BACKENDS",
    "DEFAULT_QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Sampler",
    "export_metrics_jsonl",
    "TraceRecorder",
    "NullRecorder",
    "MemoryTraceRecorder",
    "make_recorder",
    "TRACE_SAMPLE_MODES",
    "TERMINAL_SPANS",
    "SPAN_ARRIVE",
    "SPAN_ADMIT",
    "SPAN_TARPIT",
    "SPAN_SHED",
    "SPAN_ENQUEUE",
    "SPAN_DISPATCH",
    "SPAN_DEPART",
    "SPAN_RETRY",
    "SPAN_FAIL",
    "SPAN_HEDGE_FIRED",
    "SPAN_HEDGE_CANCELLED",
    "FLEET_WARMED",
    "FLEET_SCALE",
    "FLEET_RESCUE",
    "FLEET_CRASH",
    "FLEET_RECOVER",
    "FLEET_SLOWDOWN",
    "FLEET_ZONE_OUTAGE",
    "BurnRateTracker",
    "BurnWindow",
    "SloBurnReport",
]
