"""Discrete-event serving simulation: arrivals -> admission -> routing -> batches -> fleet.

Same priority-queue idiom as the NoC event engine
(:mod:`repro.noc.events`): a heap of timestamped events, cost scaling
with the number of requests rather than with elapsed time.  The initial
arrival stream, already sorted, stays off the heap as its own list; the
loop merges the two on the same ``(time, kind, seq)`` key, so the heap
holds only the few hundred events in flight.  :meth:`ServingEngine.run`
takes the next event, advances the run's time integrals, and calls the
one handler its kind indexes in a nine-entry table:

* ``DEPART`` — a replica finishes a batch: record per-request latencies,
  free (or retire) the instance, re-check the queue (and, closed-loop,
  owe each finished client its next request).  The departure of a batch
  whose instance crashed mid-service is stale and does nothing.
* ``WARMED`` — a scaled-out instance finished its warm-up delay and joins
  the serving pool.
* ``ARRIVE`` — a request reaches the admission controller; if admitted it
  is enqueued (routed to a scheduler queue), otherwise it is shed on the
  spot or tarpitted and retried later.
* ``TIMEOUT`` — a queue head's max-wait deadline passed: dispatch
  whatever is waiting if a replica is free.  Each queue keeps one such
  event pending, at its head's deadline ``oldest_arrival() + max_wait``,
  and re-arms it whenever the head changes (an enqueue into an empty
  queue or of an older request, a popped batch, a drained queue's
  requests moving); a head already past its deadline needs none.
* ``AUTOSCALE`` — the autoscaler's evaluation tick: the policy sees a
  :class:`~repro.serve.autoscale.FleetSnapshot` and may grow or shrink
  the fleet.
* ``FAULT`` — the next injected failure fires: an instance crash (the
  victim is torn down, its in-flight batch fails, a repair is
  scheduled), a transient slice slowdown, or a correlated zone outage
  (:mod:`repro.serve.faults`).
* ``RECOVER`` — a crashed instance's repair completes: a replacement is
  provisioned in its slice and pays the normal warm-up.
* ``RETRY`` — a failed request's backoff elapsed: it is enqueued again
  (skipping admission — it was already admitted once) and so lands on a
  healthy target (:mod:`repro.serve.retry`).
* ``HEDGE`` — a request still unfinished ``hedge_seconds`` after its
  enqueue is duplicated onto the least-loaded healthy queue; whichever
  copy departs first wins and the loser cancels at its own departure.
  Hedge deadlines never decrease, so admitted requests wait on one FIFO
  and a single event, at the first deadline whose request is still
  unfinished, fires every entry due.

Arrivals, retries and hedged duplicates share one ``enqueue`` path.
Every number the handlers accumulate lives in one :class:`RunCounters`.
A new counter is one field declared there (with its registry name in
the field metadata when it should be exported) plus the line in a
handler that increments it: :class:`ServingReport` extends
:class:`RunCounters` and so carries it, the
:class:`~repro.obs.metrics.MetricRegistry` export walks the
declarations, and :meth:`~repro.serve.scenario.ServingRecord.from_report`
copies every field the record declares under the same name.

Events at the same instant process departures first (a freed replica can
serve a batch formed in the same instant), then warm-ups, arrivals, and
timeouts, with the autoscaler observing the settled state and fault /
reliability events resolving last; within a kind, insertion order breaks
ties — the whole simulation is a deterministic function of the seeded
inputs, faults included.

The fleet is a :class:`~repro.serve.fleet.TypedReplicaPool`: one or more
instance types (:mod:`repro.serve.fleet`), each with its own batch
ceiling, service-time scale, warm-up, and $-cost rate.  A
:class:`~repro.serve.routing.RoutingPolicy` sits between admission and
the per-target :class:`~repro.serve.scheduler.BatchingScheduler` queues:
it assigns each admitted request to a target queue and tells each
instance type which targets it drains.  The homogeneous default — one
``default`` type behind the single shared queue — reproduces the
pre-fleet engine *bit-identically*; the regression baseline pins that.

Scale-out provisions instances that bill immediately but serve only
after their warm-up, and scale-in retires idle instances at once while
busy ones drain their current batch first.  Billed capacity integrates
into the report's ``instance_seconds`` — and, weighted by each type's
``cost_per_second``, into ``cost_dollars``, the number the
fleet-composition planner minimizes.

The output :class:`ServingReport` carries the SLO analytics: per-tenant
latency percentiles (via the shared
:func:`repro.noc.stats.summarize_latencies`), throughput, queue depths,
replica utilization, SLO-violation rates, windowed burn-rate analytics
(:class:`~repro.obs.slo.SloBurnReport`), per-type fleet usage
(:class:`~repro.serve.fleet.TypeUsage`) for heterogeneous runs, and —
when the corresponding controller is attached — autoscaling and
admission tallies.

Telemetry is injected, never hard-wired: the engine accepts an optional
:class:`~repro.obs.trace.TraceRecorder` (per-request lifecycle spans), a
:class:`~repro.obs.metrics.MetricRegistry` (counters/gauges/histograms
filled at report time), and a :class:`~repro.obs.metrics.Sampler`
(fixed-interval fleet-state series).  A disabled recorder is resolved to
``None`` before the event loop starts, so the default path pays one
attribute check per run, not per event.  Latency distributions go
through :mod:`repro.obs.sketch` — the ``"exact"`` backend keeps reports
bit-identical to the pre-telemetry engine, ``"p2"`` keeps memory
constant at web scale.  Heterogeneous runs additionally export per-type
gauges and sampler columns; the homogeneous default exports exactly what
it always did.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Mapping, Sequence

from repro.noc.stats import LatencySummary
from repro.obs.metrics import MetricRegistry, Sampler
from repro.obs.sketch import SKETCH_BACKENDS, make_sketch
from repro.obs.slo import BurnRateTracker, SloBurnReport
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
    TraceRecorder,
)
from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
)
from repro.serve.arrivals import ClosedLoopPool, Request
from repro.serve.autoscale import (
    AutoscalerPolicy,
    AutoscaleStats,
    FleetSnapshot,
    ScalingEvent,
)
from repro.serve.faults import FaultInjector, FaultSpec
from repro.serve.fleet import FleetSpec, TypedReplicaPool, TypeUsage
from repro.serve.retry import RetryPolicy
from repro.serve.routing import ROUTING_POLICIES, make_routing
from repro.serve.scheduler import BatchingScheduler, SchedulerGroup
from repro.serve.service import ServiceModel

__all__ = [
    "RunCounters",
    "ServingEngine",
    "ServingReport",
    "TenantReport",
]

# Event kinds, in same-instant processing order; each indexes its
# handler in ``ServingEngine.run``.  Reliability kinds resolve after the
# autoscaler has observed the settled state at the same instant; new
# kinds append (same-instant ordering of the original five is pinned by
# the serving regression baseline).
_DEPART = 0
_WARMED = 1
_ARRIVE = 2
_TIMEOUT = 3
_AUTOSCALE = 4
_FAULT = 5
_RECOVER = 6
_RETRY = 7
_HEDGE = 8


def _metric(
    name: str, kind: str = "counter", gate: str = "", default: float = 0
) -> Any:
    """A run tally exported to the metric registry as ``name``.

    ``gate`` names the machinery that must be armed for the export
    (``"reliability"``, ``"admission"`` or ``"typed"``); empty exports
    it on every run.
    """
    return field(
        default=default, metadata={"metric": name, "kind": kind, "gate": gate}
    )


@dataclass(slots=True)
class RunCounters:
    """Every number one serving run accumulates, declared once.

    The event handlers of :meth:`ServingEngine.run` update these fields
    and keep no other per-run tallies.  A field whose metadata names a
    ``metric`` is exported to an attached registry under that name, in
    declaration order (the order the registry has always listed them);
    its ``gate`` limits the export to runs where that machinery was
    armed.  :class:`ServingReport` extends this class, so the report
    carries every field, and
    :meth:`~repro.serve.scenario.ServingRecord.from_report` copies the
    fields the record shares by name.
    """

    # Reliability: exported only when faults, retries or hedging are armed.
    failed: int = _metric("requests_failed", gate="reliability")
    retries: int = _metric("requests_retried", gate="reliability")
    crashes: int = _metric("instances_crashed", gate="reliability")
    recoveries: int = _metric("instances_recovered", gate="reliability")
    hedges_fired: int = _metric("hedges_fired", gate="reliability")
    hedges_cancelled: int = _metric("hedges_cancelled", gate="reliability")
    # Request flow.
    offered: int = _metric("requests_offered")
    arrived: int = _metric("arrival_events")
    completed: int = _metric("requests_completed")
    batches: int = _metric("batches_dispatched")
    slo_violations: int = _metric("slo_violations")
    admitted: int = _metric("admission_admitted", gate="admission")
    shed: int = _metric("admission_shed", gate="admission")
    tarpitted: int = _metric("admission_tarpitted", gate="admission")
    # Peaks and totals.  The billed and busy instance-seconds stop at the
    # makespan (the last departure): later ticks or faults never bill.
    peak_queue_depth: int = _metric("peak_queue_depth", "gauge")
    peak_instances: int = _metric("peak_instances", "gauge")
    final_instances: int = _metric("final_instances", "gauge")
    instance_seconds: float = _metric("instance_seconds", "gauge", default=0.0)
    makespan_seconds: float = _metric("makespan_seconds", "gauge", default=0.0)
    cost_dollars: float = _metric("cost_dollars", "gauge", "typed", 0.0)
    busy_seconds: float = 0.0
    min_instances: int = 0
    slowdowns: int = 0
    zone_outages: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    per_tenant_shed: dict[str, int] = field(default_factory=dict)
    scaling: list[ScalingEvent] = field(default_factory=list)
    # Running state of the event loop (the report keeps the final
    # values): the queue and the occupancy integrals up to ``last_time``,
    # and the integrals at the last autoscaler tick.
    queue_depth: int = 0
    depth_integral: float = 0.0
    busy_integral: float = 0.0
    pool_integral: float = 0.0
    last_time: float = 0.0
    tick_busy: float = 0.0
    tick_pool: float = 0.0

    def export(self, registry: MetricRegistry, armed: Mapping[str, bool]) -> None:
        """Write every declared metric whose gate is open to ``registry``."""
        for f in fields(self):
            meta = f.metadata
            if "metric" not in meta or (meta["gate"] and not armed[meta["gate"]]):
                continue
            value = getattr(self, f.name)
            if meta["kind"] == "gauge":
                registry.gauge(meta["metric"]).set(value)
            else:
                registry.counter(meta["metric"]).inc(value)


@dataclass(frozen=True)
class TenantReport:
    """SLO analytics for one tenant's completed requests."""

    tenant: str
    completed: int
    throughput_qps: float
    latency: LatencySummary
    slo_violation_rate: float


@dataclass(kw_only=True)
class ServingReport(RunCounters):
    """Everything one serving simulation measured.

    The report is the run's final :class:`RunCounters` — every counter
    is a field (``report.completed``, ``report.batches``,
    ``report.crashes``, ``report.makespan_seconds``, ...) — plus the
    analytics derived from them.  ``instances`` is the initial fleet;
    with an autoscaler attached the fleet varies over time and
    ``instance_seconds`` (billed capacity integrated over the serving
    window) plus the ``autoscale`` trajectory tell the full story.
    ``admission`` is ``None`` unless an admission controller gated the
    run.  ``cost_dollars`` prices the billed capacity by each type's
    ``cost_per_second`` (for the homogeneous default fleet it equals
    ``instance_seconds`` at $1/s); ``per_type`` breaks usage down by
    instance type and is empty for the homogeneous default fleet.
    """

    horizon_seconds: float
    instances: int
    slo_seconds: float
    throughput_qps: float
    utilization: float
    mean_batch_size: float
    mean_queue_depth: float
    latency: LatencySummary
    slo_violation_rate: float
    tenants: dict[str, TenantReport]
    autoscale: AutoscaleStats | None = None
    admission: AdmissionStats | None = None
    burn: SloBurnReport | None = None
    fleet: str = ""
    routing: str = "shared_queue"
    per_type: tuple[TypeUsage, ...] = ()
    faults: str = ""
    retry: str = "none"
    availability: float = 1.0

    def render(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""

        def ms(seconds: float) -> str:
            # Adaptive precision: sub-0.1 ms values would render as
            # "0.00 ms" at fixed precision, which reads as zero latency.
            value = seconds * 1e3
            if value != 0 and abs(value) < 0.1:
                return f"{value:.3g} ms"
            return f"{value:.2f} ms"

        lines = [
            f"served {self.completed}/{self.offered} requests in "
            f"{self.makespan_seconds:.3f} s on {self.instances} instance(s) "
            f"({self.batches} batches, mean size {self.mean_batch_size:.2f})",
            f"throughput {self.throughput_qps:.1f} req/s   "
            f"utilization {self.utilization:.1%}   "
            f"queue depth mean {self.mean_queue_depth:.2f} / "
            f"peak {self.peak_queue_depth}",
            f"latency  p50 {ms(self.latency.p50)}  p95 {ms(self.latency.p95)}  "
            f"p99 {ms(self.latency.p99)}  max {ms(self.latency.max)}",
            f"SLO {ms(self.slo_seconds)}: violation rate "
            f"{self.slo_violation_rate:.2%}",
        ]
        if self.autoscale is not None:
            a = self.autoscale
            lines.append(
                f"fleet[{a.policy}]: start {self.instances} -> peak "
                f"{a.peak_instances} / min {a.min_instances} / final "
                f"{a.final_instances}   {a.scale_out_events} scale-out(s), "
                f"{a.scale_in_events} scale-in(s)   "
                f"instance-seconds {self.instance_seconds:.3f}"
            )
            if a.events:
                shown = a.events[:10]
                steps = " ".join(
                    f"{e.previous}->{e.target}@{e.time:.2f}s" for e in shown
                )
                suffix = (
                    f" ... (+{len(a.events) - len(shown)} more)"
                    if len(a.events) > len(shown)
                    else ""
                )
                lines.append(f"  trajectory: {steps}{suffix}")
        if self.per_type:
            # Typed fleets only: the homogeneous default render is pinned
            # bit-identical to the pre-fleet engine.
            lines.append(
                f"fleet [{self.fleet}] routing {self.routing}: "
                f"cost ${self.cost_dollars:.4f} for "
                f"{self.instance_seconds:.3f} instance-s"
            )
            for u in self.per_type:
                lines.append(
                    f"  {u.name:<8} x{u.initial}->{u.final} "
                    f"(peak {u.peak})  batches {u.batches}  "
                    f"served {u.completed}  inst-s {u.instance_seconds:.3f}"
                    f"  ${u.cost_dollars:.4f}"
                )
        if self.faults:
            # Faulted runs only: the fault-free render is pinned
            # bit-identical to the pre-reliability engine.
            lines.append(
                f"faults [{self.faults}]: killed {self.crashes} instance(s), "
                f"{self.recoveries} recovered   {self.slowdowns} slowdown(s)"
                f"   {self.zone_outages} zone outage(s)"
            )
        if self.faults or self.retry != "none" or self.hedges_fired:
            lines.append(
                f"reliability [retry={self.retry}]: availability "
                f"{self.availability:.2%}   failed {self.failed}   "
                f"retries {self.retries}   hedges {self.hedges_fired} fired"
                f" / {self.hedges_cancelled} cancelled"
            )
        if self.burn is not None:
            lines.extend(self.burn.render())
        if self.admission is not None:
            lines.append(self.admission.render())
        if self.tenants:
            lines.append("per-tenant:")
            for name in sorted(self.tenants):
                t = self.tenants[name]
                lines.append(
                    f"  {name:<12} n={t.latency.count:<7} "
                    f"p50 {ms(t.latency.p50)}  p95 {ms(t.latency.p95)}  "
                    f"p99 {ms(t.latency.p99)}  "
                    f"violations {t.slo_violation_rate:.2%}"
                )
        return "\n".join(lines)



class ServingEngine:
    """Drive schedulers + service model + a typed fleet over a workload.

    Args:
        scheduler: the batching scheduler owning the admission queue.
            With multi-target routing it becomes the first target's queue
            and prototype — each further target gets an identically
            configured :meth:`~repro.serve.scheduler.BatchingScheduler
            .spawn`.
        service: per-batch service-time model (each instance type scales
            it by its ``service_scale``).
        instances: initial replica count (the *whole* fleet when no
            autoscaler is attached).  Ignored when ``fleet`` is given —
            the spec's total wins.
        slo_seconds: per-request latency target for violation accounting.
        autoscaler: optional :class:`~repro.serve.autoscale
            .AutoscalerPolicy` evaluated on a fixed cadence; the fleet
            then grows and shrinks mid-simulation (the policy answers
            with a total; :func:`~repro.serve.autoscale.allocate_fleet`
            splits it across types, cheapest capacity first).
        admission: optional :class:`~repro.serve.admission
            .AdmissionController` gating every arrival before it may
            enter a scheduler queue.
        warmup_seconds: provisioning delay for scaled-out instances (they
            bill immediately, serve only once warm; the initial fleet
            starts warm).  Every instance type uses this one delay.
        recorder: optional :class:`~repro.obs.trace.TraceRecorder`
            receiving per-request lifecycle spans.  A recorder whose
            ``enabled`` is false (the :class:`~repro.obs.trace
            .NullRecorder` default) is dropped before the event loop, so
            tracing costs nothing unless it is on.
        registry: optional :class:`~repro.obs.metrics.MetricRegistry`
            filled with run counters/gauges and the latency sketches at
            report time.
        sampler: optional :class:`~repro.obs.metrics.Sampler` recording
            the fleet-state time series on its fixed simulated-time
            cadence.
        metrics_backend: latency-sketch backend (``"exact"`` stores every
            latency and keeps reports bit-identical to the pre-telemetry
            engine; ``"p2"`` is the constant-memory streaming estimator).
        fleet: optional typed-fleet composition, an already-parsed
            :class:`~repro.serve.fleet.FleetSpec` (string forms are
            parsed by the scenario layer).  ``None`` keeps the
            homogeneous ``default`` fleet of ``instances``, which is
            bit-identical to the pre-fleet engine.
        routing: routing-policy name from
            :data:`~repro.serve.routing.ROUTING_POLICIES` (default
            ``shared_queue``: one queue every instance type drains).
        faults: optional, already-parsed :class:`~repro.serve.faults
            .FaultSpec`.  ``None`` (or a spec with every process
            disabled) skips the fault machinery entirely, keeping the
            default path bit-identical to the fault-free engine.
        retry: optional :class:`~repro.serve.retry.RetryPolicy` deciding
            whether failed requests re-enter the queue (``None``, or a
            policy that can never retry, skips the retry machinery).
        hedge_seconds: duplicate a request onto a second queue when it
            is still unfinished this long after enqueue (``0`` disables
            hedging); first copy to depart wins.
        seed: seed of the randomized routing policies (po2) and of the
            fault injector's event stream (the scenario layer passes the
            scenario seed).

    The SLO burn-rate analytics measure against a 1% error budget over
    windows an eighth of the run horizon wide.
    """

    def __init__(
        self,
        scheduler: BatchingScheduler,
        service: ServiceModel,
        instances: int = 2,
        slo_seconds: float = 0.05,
        autoscaler: AutoscalerPolicy | None = None,
        admission: AdmissionController | None = None,
        warmup_seconds: float = 0.0,
        recorder: TraceRecorder | None = None,
        registry: MetricRegistry | None = None,
        sampler: Sampler | None = None,
        metrics_backend: str = "exact",
        fleet: FleetSpec | None = None,
        routing: str = "shared_queue",
        faults: FaultSpec | None = None,
        retry: RetryPolicy | None = None,
        hedge_seconds: float = 0.0,
        seed: int = 0,
    ) -> None:
        if fleet is None and instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        if slo_seconds <= 0:
            raise ValueError(f"SLO must be positive, got {slo_seconds}")
        if warmup_seconds < 0:
            raise ValueError("warm-up must be non-negative")
        if metrics_backend not in SKETCH_BACKENDS:
            raise ValueError(
                f"unknown metrics backend {metrics_backend!r}; "
                f"choose from {SKETCH_BACKENDS}"
            )
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; "
                f"choose from {sorted(ROUTING_POLICIES)}"
            )
        self.scheduler = scheduler
        self.service = service
        self.fleet_spec = (
            fleet if fleet is not None
            else FleetSpec.homogeneous("default", instances)
        )
        self.instances = self.fleet_spec.total()
        self.slo_seconds = slo_seconds
        self.autoscaler = autoscaler
        self.admission = admission
        self.warmup_seconds = warmup_seconds
        self.recorder = recorder
        self.registry = registry
        self.sampler = sampler
        self.metrics_backend = metrics_backend
        self.routing = routing
        if hedge_seconds < 0:
            raise ValueError("hedge_seconds must be non-negative")
        # A fault spec with every process disabled, and a retry policy
        # that can never retry (mode "none", or one attempt total),
        # resolve to None so the loop skips their machinery.
        self.faults = faults if faults is not None and faults.enabled else None
        self.retry_policy = retry if retry is not None and retry.enabled else None
        self.hedge_seconds = hedge_seconds
        self.seed = seed

    def run(
        self,
        requests: Sequence[Request] | None = None,
        closed_loop: ClosedLoopPool | None = None,
        horizon_seconds: float | None = None,
    ) -> ServingReport:
        """Simulate one workload to completion.

        Exactly one of ``requests`` (open-loop: the pre-generated stream)
        or ``closed_loop`` (a client pool the simulation drives) must be
        given.  ``horizon_seconds`` stops *admission* — requests arriving
        at or after it are dropped (closed-loop pools stop spawning), and
        tarpitted requests still refused at the horizon are shed — but
        everything admitted is served to completion.  Closed-loop runs
        require a horizon or they would never terminate.
        """
        if (requests is None) == (closed_loop is None):
            raise ValueError("provide exactly one of requests / closed_loop")
        if closed_loop is not None and horizon_seconds is None:
            raise ValueError("closed-loop runs need horizon_seconds")
        if horizon_seconds is not None and horizon_seconds <= 0:
            raise ValueError("horizon must be positive")
        if self.autoscaler is not None:
            self.autoscaler.reset()
        if self.admission is not None:
            self.admission.reset()

        c = RunCounters()
        events: list[tuple[float, int, int, object]] = []
        tiebreak = itertools.count()

        def push(time: float, kind: int, payload: object) -> None:
            heapq.heappush(events, (time, kind, next(tiebreak), payload))

        initial = (
            list(requests) if requests is not None else closed_loop.initial_requests()
        )
        # The initial stream stays off the heap: ``pending`` holds its
        # ARRIVE events, already in (time, kind, seq) order, and the loop
        # merges it with the heap on that key.  Each takes its seq from
        # ``tiebreak`` first, exactly as if pushed, so the event order is
        # the one a single heap would give.  Kept reversed: the next
        # arrival is ``pending[-1]``.
        stream = sorted(initial, key=attrgetter("arrival_time", "request_id"))
        if horizon_seconds is not None:
            stream = [r for r in stream if r.arrival_time < horizon_seconds]
        # ``zip`` stops at the end of the times, before it draws from
        # ``tiebreak``: one seq per kept request, in stream order.
        times = map(attrgetter("arrival_time"), stream)
        pending = list(zip(times, itertools.repeat(_ARRIVE), tiebreak, stream))
        pending.reverse()
        c.offered = len(pending)
        horizon = horizon_seconds or max(
            (r.arrival_time for r in initial), default=0.0
        )
        # An empty stream simulates nothing, so it arms nothing either:
        # no controller, fault process or retry, and no report section
        # for them.
        live = c.offered > 0
        autoscaler = self.autoscaler if live else None
        admission = self.admission if live else None
        faults = self.faults if live else None
        retry_policy = self.retry_policy if live else None
        hedge_seconds = self.hedge_seconds if live else 0.0
        faulty = faults is not None
        hedging = hedge_seconds > 0

        fleet = TypedReplicaPool(
            self.fleet_spec, default_warmup_seconds=self.warmup_seconds
        )
        typed = fleet.is_typed
        slices = fleet.slices
        c.peak_instances = c.min_instances = fleet.provisioned

        # The routing layer: one scheduler queue per target, the provided
        # scheduler serving as the first queue and the prototype for the
        # rest.
        policy = make_routing(self.routing, fleet.types, seed=self.seed)
        targets = policy.targets()
        sched0 = self.scheduler
        schedulers = {
            target: (sched0 if i == 0 else sched0.spawn())
            for i, target in enumerate(targets)
        }
        depth_of = SchedulerGroup(schedulers).depth_of
        max_wait = sched0.max_wait_seconds
        # Per-slice dispatch plan: each instance type drains its declared
        # targets in priority order, capped by its own batch ceiling.
        serve_plan = [
            (
                slice_,
                slice_.pool,
                slice_.itype.max_batch or None,
                tuple(schedulers[t] for t in policy.serves(slice_.itype.name)),
                slice_.itype.service_scale,
            )
            for slice_ in slices
        ]
        # Which slices serve each routing target: the health view behind
        # failure-aware routing (a target is healthy while any serving
        # slice has an instance up or warming).
        serving_slices = {
            target: tuple(
                s for s in slices if target in policy.serves(s.itype.name)
            )
            for target in targets
        }
        service_seconds = self.service.batch_service_seconds

        # Telemetry collaborators.  A disabled recorder resolves to None
        # here, once, so the event loop below never pays for tracing it
        # is not doing.
        recorder = self.recorder
        rec = recorder if recorder is not None and recorder.enabled else None
        sampler = self.sampler
        seen_requests: set[int] = set()  # first-arrival dedup, tracing only
        burn = BurnRateTracker(
            slo_seconds=self.slo_seconds,
            budget=0.01,
            window_seconds=max(horizon / 8.0, 1e-9),
        )
        overall_sketch = make_sketch(self.metrics_backend)
        tenant_sketches: dict[str, Any] = {}

        # Reliability state.  Without faults no slowdown is ever active
        # and no attempt fails; the hedging maps fill only when hedging is
        # armed (an unhedged run keeps no per-request entry).
        injector = (
            FaultInjector(faults, self.seed, len(slices)) if faulty else None
        )
        slow_factor = faults.slow_factor if faulty else 1.0
        slow_until = [0.0] * len(slices)
        in_flight: dict[tuple[int, int], Any] = {}  # handle -> its batch
        attempt_count: dict[int, int] = {}  # failed attempts per request
        finished_ids: set[int] = set()  # hedging: departed-or-failed ids
        copies: dict[int, int] = {}  # hedging: extra outstanding copies
        route_of: dict[int, str] = {}  # hedging: the primary copy's target
        # Hedging: (deadline, request) per admitted request, in admission
        # order.  Deadlines never decrease, so one HEDGE event at the
        # first deadline still pending serves the whole queue.
        hedge_queue: deque[tuple[float, Request]] = deque()

        # Batching deadlines: each queue keeps one TIMEOUT pending at (or
        # before) its head's deadline, ``oldest_arrival() + max_wait``;
        # ``armed`` maps a queue to that event's time.  A head already
        # past its deadline needs none: the step that exposed it calls
        # try_dispatch, and only a freed instance can change the outcome.
        timed = max_wait > 0
        armed: dict[BatchingScheduler, float] = {}
        # The last batching and hedge deadlines of any admitted request:
        # the autoscaler keeps ticking until both have passed.
        deadline_tail = hedge_tail = -math.inf

        if autoscaler is not None:
            push(autoscaler.interval_seconds, _AUTOSCALE, None)
        if faulty:
            # Seed one event per armed fault process.  Seeds and re-arms
            # alike only land inside the admission horizon, so the fault
            # stream always terminates and the post-horizon drain runs
            # fault-free (a seed drawn past the horizon never fires —
            # counters and billing integrals stay inside the run).
            if faults.mtbf > 0:
                for i, s in enumerate(slices):
                    gap = injector.next_crash_gap(s.pool.provisioned)
                    if gap < horizon:
                        push(gap, _FAULT, ("crash", i))
            if faults.slow_mtbf > 0:
                for i in range(len(slices)):
                    gap = injector.next_slowdown_gap()
                    if gap < horizon:
                        push(gap, _FAULT, ("slow", i))
            if faults.zone_mtbf > 0:
                gap = injector.next_zone_gap()
                if gap < horizon:
                    push(gap, _FAULT, ("zone", -1))

        # ------------------------------------------------------------
        # Shared steps the handlers compose.
        # ------------------------------------------------------------
        def spawn_follow_up(now: float) -> None:
            """Closed loop: a finished (or refused) client owes its next request."""
            follow_up = closed_loop.next_request(now)
            if follow_up.arrival_time < horizon:
                push(follow_up.arrival_time, _ARRIVE, follow_up)
                c.offered += 1

        def arm(sched: BatchingScheduler, now: float) -> None:
            """Keep a TIMEOUT pending no later than ``sched``'s head deadline."""
            head = sched.oldest_arrival()
            if head is None:
                return
            deadline = head + max_wait
            if now < deadline < armed.get(sched, math.inf):
                armed[sched] = deadline
                push(deadline, _TIMEOUT, sched)

        def try_dispatch(now: float) -> None:
            for slice_, pool, limit, scheds, scale in serve_plan:
                while pool.has_free():
                    batch = None
                    for sched in scheds:
                        if sched.ready(now, limit):
                            batch = sched.pop_batch(now, limit)
                            if timed:
                                arm(sched, now)
                            break
                    if batch is None:
                        break
                    c.queue_depth -= len(batch.requests)
                    index = slice_.index
                    handle = fleet.acquire(index, now)
                    seconds = service_seconds(batch.graph_sizes) * scale
                    if now < slow_until[index]:
                        seconds *= slow_factor
                    in_flight[handle] = batch
                    c.batches += 1
                    if rec is not None:
                        label = fleet.label(handle)
                        for request in batch.requests:
                            rec.request_event(
                                now,
                                SPAN_DISPATCH,
                                request,
                                instance=label,
                                batch_size=len(batch.requests),
                                service_seconds=seconds,
                            )
                    push(now + seconds, _DEPART, handle)

        def target_healthy(target: str) -> bool:
            """Whether any slice serving ``target`` has capacity alive
            (ready or warming instances: its pool's provisioned count)."""
            for s in serving_slices[target]:
                if s.pool.provisioned:
                    return True
            return False

        def healthy_route(request: Request, exclude: str | None = None) -> str:
            """Failure-aware routing: fall back to the least-loaded
            healthy target when the policy's pick has no capacity left.

            ``exclude`` is the hedging hook — the target already carrying
            the request's primary copy.  A hedged duplicate goes to the
            least-loaded *other* healthy target when one exists (the
            point of hedging is a second, independent path), and only
            falls back to the primary's target when it is the sole
            survivor."""
            if exclude is not None:
                alive = [
                    t for t in targets if t != exclude and target_healthy(t)
                ]
                if alive:
                    return min(alive, key=lambda t: (depth_of(t), t))
            target = policy.route(request, depth_of)
            if not target_healthy(target):
                alive = [t for t in targets if target_healthy(t)]
                if alive:
                    target = min(alive, key=lambda t: (depth_of(t), t))
            return target

        def eject_dead_targets(now: float) -> int:
            """Drain queues stranded behind targets with no capacity and
            re-enqueue their requests onto the least-loaded healthy
            targets; returns how many requests moved (total outages move
            nothing — those queues wait for recoveries)."""
            alive = [t for t in targets if target_healthy(t)]
            if not alive:
                return 0
            moved = 0
            for target in targets:
                if target_healthy(target):
                    continue
                sched = schedulers[target]
                if sched.queue_depth == 0:
                    continue
                for request in sched.drain():
                    dest = schedulers[min(alive, key=lambda t: (depth_of(t), t))]
                    dest.enqueue(request)
                    if timed:
                        arm(dest, now)
                    moved += 1
            return moved

        def enqueue(
            request: Request, now: float, exclude: str | None = None
        ) -> None:
            """Queue an admitted request: arrivals, retries and hedges.

            The request is routed (failure-aware under faults), re-arms
            its queue's batching deadline if it became the head, and may
            dispatch at once.  ``exclude`` steers a hedged duplicate away
            from the target already carrying the primary copy.
            """
            nonlocal deadline_tail
            if faulty or exclude is not None:
                target = healthy_route(request, exclude)
            else:
                target = policy.route(request, depth_of)
            sched = schedulers[target]
            sched.enqueue(request)
            if hedging:  # only a hedge reads it
                route_of[request.request_id] = target
            c.queue_depth += 1
            if rec is not None:
                rec.request_event(
                    now, SPAN_ENQUEUE, request, queue_depth=c.queue_depth
                )
            if c.queue_depth > c.peak_queue_depth:
                c.peak_queue_depth = c.queue_depth
            if timed:
                deadline_tail = now + max_wait
                # A request arriving now cannot move a non-empty queue's
                # head deadline; an earlier arrival (a retry, hedge or
                # tarpitted request) can.
                if sched.queue_depth == 1 or request.arrival_time < now:
                    arm(sched, now)
            try_dispatch(now)

        def fail_attempt(request: Request, now: float) -> None:
            """One service attempt died with its instance: retry or fail."""
            rid = request.request_id
            if rid in finished_ids:
                copies.pop(rid, None)  # late copy of a settled request
                route_of.pop(rid, None)
                return
            extra = copies.get(rid, 0)
            if extra > 0:
                # A surviving hedge copy (queued or in flight) still
                # carries the request; the duplicate absorbs this failure.
                copies[rid] = extra - 1
                return
            attempt = attempt_count.get(rid, 0) + 1
            delay = (
                retry_policy.next_delay(request, attempt, now)
                if retry_policy is not None
                else None
            )
            if delay is None:
                c.failed += 1
                attempt_count.pop(rid, None)
                finished_ids.add(rid)
                copies.pop(rid, None)
                route_of.pop(rid, None)
                if rec is not None:
                    rec.request_event(now, SPAN_FAIL, request, attempts=attempt)
                if closed_loop is not None:
                    # The client saw an error; it owes its next request.
                    spawn_follow_up(now)
                return
            attempt_count[rid] = attempt
            c.retries += 1
            if rec is not None:
                rec.request_event(
                    now, SPAN_RETRY, request,
                    attempt=attempt, retry_at=now + delay,
                )
            push(now + delay, _RETRY, request)

        def crash_instance(
            handle: tuple[int, int], now: float, repair_seconds: float
        ) -> None:
            """Tear one instance down and fail whatever it was serving."""
            c.crashes += 1
            state = fleet.crash(handle, now)
            if rec is not None:
                rec.fleet_event(
                    now, FLEET_CRASH, instance=fleet.label(handle), state=state
                )
            if state in ("busy", "retiring"):
                # Its pending DEPART finds no batch in flight and is
                # discarded (instance ids are never reused).
                for request in in_flight.pop(handle).requests:
                    fail_attempt(request, now)
            if state != "retiring":
                # A retiring instance was leaving anyway; everyone else
                # gets a replacement once the repair completes.
                push(now + repair_seconds, _RECOVER, handle[0])
            if eject_dead_targets(now):
                try_dispatch(now)

        def fleet_state() -> dict[str, object]:
            """What one Sampler row holds (state before the current event).

            Typed fleets add per-type and per-target columns; the
            homogeneous default keeps exactly the pre-fleet columns.
            """
            state: dict[str, object] = {
                "ready": fleet.ready_count,
                "warming": fleet.warming_count,
                "busy": fleet.busy_count,
                "retiring": fleet.retiring_count,
                "provisioned": fleet.provisioned,
                "queue_depth": c.queue_depth,
                "arrived": c.arrived,
                "admitted": c.admitted,
                "shed": c.shed,
                "tarpitted": c.tarpitted,
                "completed": c.completed,
                "utilization": (
                    round(c.busy_integral / c.pool_integral, 9)
                    if c.pool_integral > 0
                    else 0.0
                ),
            }
            if typed:
                for s in slices:
                    state[f"provisioned[{s.itype.name}]"] = s.pool.provisioned
                    state[f"busy[{s.itype.name}]"] = s.pool.busy_count
                for target in targets:
                    state[f"queue_depth[{target}]"] = depth_of(target)
            return state

        # ------------------------------------------------------------
        # One handler per event kind.
        # ------------------------------------------------------------
        def on_depart(now: float, handle: tuple[int, int]) -> None:
            batch = in_flight.pop(handle, None)
            if batch is None:
                # The instance crashed mid-batch: its requests took the
                # failure path and the crash freed its slot already.
                return
            # Only departures advance the makespan: stale TIMEOUT (or
            # autoscale-tick) events outliving the last departure are
            # no-ops and must not inflate the throughput/utilization
            # window — the billing integrals are snapshotted here too.
            c.makespan_seconds = now
            c.busy_seconds = c.busy_integral
            c.instance_seconds = c.pool_integral
            fleet.release(handle, now)
            slices[handle[0]].completed += len(batch.requests)
            label = fleet.label(handle)
            for request in batch.requests:
                rid = request.request_id
                if hedging:  # only a hedged request can depart twice
                    if rid in finished_ids:
                        # The losing hedge copy: the winner already
                        # recorded this request's latency (or its
                        # failure); drop the duplicate silently.
                        c.hedges_cancelled += 1
                        copies.pop(rid, None)
                        route_of.pop(rid, None)
                        if rec is not None:
                            rec.request_event(
                                now, SPAN_HEDGE_CANCELLED, request,
                                instance=label,
                            )
                        continue
                    finished_ids.add(rid)
                    route_of.pop(rid, None)
                attempt_count.pop(rid, None)  # a retried request succeeded
                latency = now - request.arrival_time
                sketch = tenant_sketches.get(request.tenant)
                if sketch is None:
                    sketch = tenant_sketches[request.tenant] = make_sketch(
                        self.metrics_backend
                    )
                sketch.add(latency)
                overall_sketch.add(latency)
                violated = burn.observe(now, request.tenant, latency)
                c.completed += 1
                if rec is not None:
                    rec.request_event(
                        now,
                        SPAN_DEPART,
                        request,
                        instance=label,
                        latency=latency,
                        violated=violated,
                    )
                if closed_loop is not None:
                    spawn_follow_up(now)
            try_dispatch(now)

        def on_warmed(now: float, handle: tuple[int, int]) -> None:
            if fleet.warmed(handle, now):
                if rec is not None:
                    rec.fleet_event(
                        now, FLEET_WARMED, instance=fleet.label(handle)
                    )
                try_dispatch(now)

        def on_arrive(now: float, request: Request) -> None:
            nonlocal hedge_tail
            c.arrived += 1
            if rec is not None and request.request_id not in seen_requests:
                seen_requests.add(request.request_id)
                rec.request_event(now, SPAN_ARRIVE, request)
            reason = "open"
            if admission is not None:
                # Graceful degradation under faults: with part of the
                # fleet down, the queue budget tightens to the healthy
                # fraction of declared capacity.  A scale-in is not a
                # fault and leaves the budget alone.
                decision = admission.admit(
                    request.tenant,
                    now,
                    c.queue_depth,
                    capacity_fraction=(
                        min(fleet.provisioned / self.instances, 1.0)
                        if faulty
                        else 1.0
                    ),
                )
                if not decision.admitted:
                    refuse(now, request, decision)
                    return
                reason = decision.reason
            c.admitted += 1
            if rec is not None:
                rec.request_event(now, SPAN_ADMIT, request, reason=reason)
            enqueue(request, now)
            if hedging:
                # Queued once per request, at its first (admitted)
                # enqueue; fires only if still unfinished then.
                hedge_tail = now + hedge_seconds
                if not hedge_queue:
                    push(hedge_tail, _HEDGE, None)
                hedge_queue.append((hedge_tail, request))

        def refuse(
            now: float, request: Request, decision: AdmissionDecision
        ) -> None:
            """An arrival admission turned away: tarpit it or shed it."""
            retry_at = now + decision.retry_after_seconds
            if decision.retry_after_seconds > 0 and retry_at < horizon:
                c.tarpitted += 1
                if rec is not None:
                    rec.request_event(
                        now,
                        SPAN_TARPIT,
                        request,
                        reason=decision.reason,
                        retry_at=retry_at,
                    )
                push(retry_at, _ARRIVE, request)
                return
            c.shed += 1
            c.shed_by_reason[decision.reason] = (
                c.shed_by_reason.get(decision.reason, 0) + 1
            )
            c.per_tenant_shed[request.tenant] = (
                c.per_tenant_shed.get(request.tenant, 0) + 1
            )
            if rec is not None:
                rec.request_event(
                    now, SPAN_SHED, request, reason=decision.reason
                )
            if closed_loop is not None:
                # The refused client errors out and retries after a
                # backoff.  The backoff (reusing the controller's tarpit
                # delay) guarantees the clock advances even for
                # zero-think-time pools — an instant retry against a
                # still-full queue would livelock the simulation.
                spawn_follow_up(now + admission.tarpit_seconds)

        def on_timeout(now: float, sched: BatchingScheduler) -> None:
            if armed.get(sched) == now:
                del armed[sched]
            try_dispatch(now)  # the queue head may have exceeded its wait
            arm(sched, now)  # this event may have been for an earlier head

        def on_autoscale(now: float, _: object) -> None:
            # Observe the interval, maybe resize the fleet.
            interval_busy = c.busy_integral - c.tick_busy
            interval_pool = c.pool_integral - c.tick_pool
            c.tick_busy = c.busy_integral
            c.tick_pool = c.pool_integral
            snapshot = FleetSnapshot(
                now=now,
                provisioned=fleet.target_size,
                ready=fleet.ready_count,
                busy=fleet.busy_count,
                warming=fleet.warming_count,
                queue_depth=c.queue_depth,
                utilization=(
                    min(interval_busy / interval_pool, 1.0)
                    if interval_pool > 0
                    else 0.0
                ),
            )
            target = autoscaler.decide(snapshot)
            if target != snapshot.provisioned:
                for handle, ready_at in fleet.scale_to(target, now):
                    if ready_at > now:
                        push(ready_at, _WARMED, handle)
                # The per-type split is reported for typed fleets only
                # (pre-fleet trajectories and traces are pinned).
                per_type = fleet.last_scale_detail if typed else ()
                if rec is not None:
                    detail = (
                        {"per_type": [list(row) for row in per_type]}
                        if typed
                        else {}
                    )
                    rec.fleet_event(
                        now,
                        FLEET_SCALE,
                        previous=snapshot.provisioned,
                        target=target,
                        **detail,
                    )
                    for label in fleet.last_rescued:
                        rec.fleet_event(now, FLEET_RESCUE, instance=label)
                c.scaling.append(
                    ScalingEvent(
                        time=now,
                        previous=snapshot.provisioned,
                        target=target,
                        per_type=per_type,
                    )
                )
                try_dispatch(now)
            c.peak_instances = max(c.peak_instances, fleet.provisioned)
            c.min_instances = min(c.min_instances, fleet.target_size)
            # Keep observing while work is pending or outstanding, and
            # until the last admitted request's batching deadline (which
            # resolves before this tick at the same instant) and hedge
            # deadline (which resolves after it) have passed.
            if (
                pending or events or c.queue_depth > 0 or fleet.busy_count > 0
                or now < deadline_tail or now <= hedge_tail
            ):
                push(now + autoscaler.interval_seconds, _AUTOSCALE, None)

        def on_fault(now: float, payload: tuple[str, int]) -> None:
            what, idx = payload
            if what == "crash":
                victim = injector.pick_victim(fleet.instance_ids(idx))
                if victim is not None:
                    crash_instance((idx, victim), now, faults.mttr)
                gap = injector.next_crash_gap(slices[idx].pool.provisioned)
                if now + gap < horizon:
                    push(now + gap, _FAULT, ("crash", idx))
            elif what == "slow":
                c.slowdowns += 1
                slow_until[idx] = now + faults.slow_duration
                if rec is not None:
                    rec.fleet_event(
                        now,
                        FLEET_SLOWDOWN,
                        type=slices[idx].itype.name,
                        factor=slow_factor,
                        until=slow_until[idx],
                    )
                gap = injector.next_slowdown_gap()
                if now + gap < horizon:
                    push(now + gap, _FAULT, ("slow", idx))
            else:  # zone outage: correlated teardown across slices
                zone = injector.pick_zone()
                c.zone_outages += 1
                victims = [
                    (s.index, instance)
                    for s in slices
                    for instance in s.pool.instance_ids()
                    if injector.zone_of(instance) == zone
                ]
                if rec is not None:
                    rec.fleet_event(
                        now, FLEET_ZONE_OUTAGE, zone=zone, killed=len(victims)
                    )
                for victim_handle in victims:
                    crash_instance(victim_handle, now, faults.zone_mttr)
                gap = injector.next_zone_gap()
                if now + gap < horizon:
                    push(now + gap, _FAULT, ("zone", -1))

        def on_recover(now: float, index: int) -> None:
            c.recoveries += 1
            handle, ready_at = fleet.restore(index, now)
            if rec is not None:
                rec.fleet_event(
                    now,
                    FLEET_RECOVER,
                    instance=fleet.label(handle),
                    ready_at=ready_at,
                )
            if ready_at > now:
                push(ready_at, _WARMED, handle)
            else:
                try_dispatch(now)

        def on_retry(now: float, request: Request) -> None:
            enqueue(request, now)  # admission was paid at the first arrival

        def on_hedge(now: float, _: object) -> None:
            # Every deadline due now, in admission order (HEDGE sorts
            # after every other kind at the same instant).
            while hedge_queue and hedge_queue[0][0] <= now:
                request = hedge_queue.popleft()[1]
                rid = request.request_id
                primary = route_of.pop(rid, None)
                if rid in finished_ids:
                    continue
                c.hedges_fired += 1
                copies[rid] = copies.get(rid, 0) + 1
                if rec is not None:
                    rec.request_event(now, SPAN_HEDGE_FIRED, request)
                enqueue(request, now, exclude=primary)
            # Settled requests need no hedge: wait for the next one that
            # may still fire.
            while hedge_queue and hedge_queue[0][1].request_id in finished_ids:
                route_of.pop(hedge_queue.popleft()[1].request_id, None)
            if hedge_queue:
                push(hedge_queue[0][0], _HEDGE, None)

        handlers = (
            on_depart, on_warmed, on_arrive, on_timeout, on_autoscale,
            on_fault, on_recover, on_retry, on_hedge,
        )
        heappop = heapq.heappop
        while True:
            if pending:
                if events and events[0] < pending[-1]:
                    now, kind, _, payload = heappop(events)
                else:
                    now, kind, _, payload = pending.pop()
            elif events:
                now, kind, _, payload = heappop(events)
            else:
                break
            dt = now - c.last_time
            c.depth_integral += c.queue_depth * dt
            c.busy_integral += fleet.busy_count * dt
            c.pool_integral += fleet.provisioned * dt
            c.last_time = now
            if sampler is not None and now >= sampler.next_time:
                sampler.record(now, fleet_state())
            handlers[kind](now, payload)

        if route_of:
            raise RuntimeError(
                f"{len(route_of)} hedge routes outlived their requests"
            )
        if rec is not None:
            rec.finish()
        if sampler is not None:
            # Extend the series through the run horizon so its length is a
            # deterministic function of horizon / interval alone.
            sampler.record(max(horizon, c.last_time), fleet_state())
        c.final_instances = fleet.target_size
        c.slo_violations = burn.violations
        # Per-type usage is billed through the makespan.  The homogeneous
        # default fleet bills $1/s, so its cost is exactly the
        # instance-seconds integral and it reports no per-type breakdown
        # (pre-fleet reports pinned).
        per_type = fleet.usage() if typed and live else ()
        c.cost_dollars = (
            sum(u.cost_dollars for u in per_type) if per_type else c.instance_seconds
        )
        registry = self.registry
        if registry is not None:
            c.export(registry, {
                "reliability": faulty or retry_policy is not None or hedging,
                "admission": admission is not None,
                "typed": typed,
            })
            for u in per_type:
                registry.gauge(f"instance_seconds[{u.name}]").set(
                    u.instance_seconds
                )
                registry.gauge(f"peak_instances[{u.name}]").set(u.peak)
                registry.counter(f"requests_completed[{u.name}]").inc(
                    u.completed
                )
                registry.counter(f"batches_dispatched[{u.name}]").inc(u.batches)
            registry.attach_histogram("latency_seconds", overall_sketch)
            for tenant in sorted(tenant_sketches):
                registry.attach_histogram(
                    f"latency_seconds[{tenant}]", tenant_sketches[tenant]
                )
        window = c.makespan_seconds if c.makespan_seconds > 0 else 1.0
        settled = c.completed + c.failed
        return ServingReport(
            **{f.name: getattr(c, f.name) for f in fields(c)},
            horizon_seconds=horizon,
            instances=self.instances,
            slo_seconds=self.slo_seconds,
            throughput_qps=c.completed / window,
            utilization=(
                c.busy_seconds / c.instance_seconds
                if c.instance_seconds > 0
                else 0.0
            ),
            mean_batch_size=c.completed / c.batches if c.batches else 0.0,
            mean_queue_depth=c.depth_integral / window,
            latency=overall_sketch.summary(),
            slo_violation_rate=(
                c.slo_violations / c.completed if c.completed else 0.0
            ),
            tenants={
                name: TenantReport(
                    tenant=name,
                    completed=sketch.count,
                    throughput_qps=sketch.count / window,
                    latency=sketch.summary(),
                    slo_violation_rate=burn.violations_for(name) / sketch.count,
                )
                for name, sketch in sorted(tenant_sketches.items())
            },
            autoscale=(
                AutoscaleStats(
                    policy=autoscaler.kind,
                    peak_instances=c.peak_instances,
                    min_instances=c.min_instances,
                    final_instances=c.final_instances,
                    scale_out_events=sum(1 for e in c.scaling if e.delta > 0),
                    scale_in_events=sum(1 for e in c.scaling if e.delta < 0),
                    events=tuple(c.scaling),
                )
                if autoscaler is not None
                else None
            ),
            admission=(
                AdmissionStats(
                    mode=admission.mode,
                    offered=c.offered,
                    admitted=c.admitted,
                    shed=c.shed,
                    tarpitted=c.tarpitted,
                    shed_by_reason=c.shed_by_reason,
                    per_tenant_shed=c.per_tenant_shed,
                )
                if admission is not None
                else None
            ),
            burn=burn.report(),
            fleet=self.fleet_spec.render() if typed else "",
            routing=self.routing,
            per_type=per_type,
            faults=faults.render() if faulty else "",
            retry=retry_policy.mode if retry_policy is not None else "none",
            availability=c.completed / settled if settled > 0 else 1.0,
        )
