"""Declarative serving scenarios: one evaluation point of the serving engine.

A :class:`ServingScenario` mirrors the architecture layer's
:class:`~repro.campaign.spec.Scenario` contract (frozen dataclass with a
``label`` field and ``auto_label()``), so the generic
:class:`~repro.campaign.spec.CampaignSpec` machinery sweeps serving knobs
— QPS x batch size x instances and friends — with no new cross-product
code.  :func:`run_serving_scenario` is the leaf evaluator; its flat
:class:`ServingRecord` output persists in the same content-addressed
:class:`~repro.campaign.store.ResultStore` as architecture results, keyed
by :func:`serving_key`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from repro.campaign.store import ResultStore
from repro.obs.metrics import MetricRegistry, Sampler
from repro.obs.sketch import SKETCH_BACKENDS
from repro.obs.trace import TraceRecorder
from repro.serve.admission import ADMISSION_MODES, AdmissionController
from repro.serve.arrivals import (
    ARRIVALS,
    ArrivalProcess,
    TenantMix,
    make_arrivals,
)
from repro.serve.autoscale import AUTOSCALERS, AutoscalerPolicy, make_autoscaler
from repro.serve.engine import ServingEngine, ServingReport
from repro.serve.faults import FaultSpec
from repro.serve.fleet import FleetSpec
from repro.serve.retry import RETRY_POLICIES, make_retry_policy
from repro.serve.routing import ROUTING_POLICIES
from repro.serve.scheduler import POLICIES, BatchingScheduler
from repro.serve.service import AcceleratorServiceModel, ServiceModel
from repro.utils.hashing import stable_digest

#: Bump when the serving model changes in a way that invalidates cached
#: serving records (participates in every serving scenario's content hash).
#: v2: closed-loop autoscaling + admission control (dynamic replica pool,
#: instance-seconds accounting, shed/tarpit tallies).
#: v3: telemetry — sketch-backed latency accounting, SLO burn-rate
#: analytics (new scenario knobs + burn fields on the record).
#: v4: heterogeneous fleets — typed instances, routing policies, $-cost
#: accounting (``fleet``/``routing`` knobs; records gain cost fields).
#: v5: reliability — fault injection, retries, hedged dispatch
#: (``faults``/``retry``/``hedge_seconds`` knobs; records gain
#: failure/availability fields).
#: v6: one batching timeout per queue head and one hedge timer: fewer
#: events split the occupancy integrals, so stored ``utilization``,
#: ``instance_seconds`` and cost floats move in their last bits.
SERVE_SCHEMA_VERSION = 6


@dataclass(frozen=True)
class ServingScenario:
    """One serving evaluation point: workload + scheduler + fleet knobs.

    Attributes:
        dataset / scale: the accelerator workload that calibrates the
            service-time model (defaults match the campaign presets).
        arrival: open-loop arrival model (``poisson``/``mmpp``/``diurnal``).
        qps: nominal offered load, requests per second.
        duration_seconds: admission window; everything admitted is served.
        num_tenants: equal-weight tenants sharing the stream.
        max_batch: scheduler batch-size cap.
        max_wait_seconds: scheduler deadline for the oldest queued request.
        policy: batch composition (``fifo``/``wfq``).
        instances: replicated accelerator instances (the *initial* fleet
            when an autoscaler is attached).  When ``fleet`` is set this
            is normalized to the spec's total.
        fleet: typed-fleet composition in the CLI string form
            (``"small:2,large:1"``); empty keeps the homogeneous
            ``default`` fleet of ``instances`` — the pre-fleet model.
        routing: routing-policy name (one of
            :data:`~repro.serve.routing.ROUTING_POLICIES`); the default
            ``shared_queue`` keeps the single pre-routing queue.
        slo_seconds: per-request latency target for violation accounting.
        seed: RNG seed for arrivals and service-model calibration.
        autoscaler: fleet controller — ``none`` (static fleet),
            ``target-util``, or ``queue-pid``.
        autoscale_target: the policy setpoint (busy fraction for
            ``target-util``, queued requests per ready replica for
            ``queue-pid``).
        warmup_seconds: provisioning delay before a scaled-out instance
            can serve (it bills from the moment it is provisioned).
        min_instances / max_instances: autoscaler clamp band.
        admission: overload response — ``none`` (open loop),
            ``shed`` (drop refused requests), or ``tarpit`` (delay and
            retry them).
        queue_budget: scheduler queue depth at which admissions are
            refused (``0`` disables the queue gate).
        tenant_quota_qps: per-tenant token-bucket admission rate
            (``0`` disables quotas).
        tarpit_seconds: retry delay per refusal in ``tarpit`` mode.
        metrics_backend: latency-sketch backend — ``exact`` (store every
            latency; bit-identical to the pre-telemetry engine) or ``p2``
            (constant-memory streaming quantiles).
        faults: fault-injection spec in the CLI string form
            (``"mtbf=0.4,mttr=0.1"``, or the named preset ``default``);
            empty disables fault injection entirely (the bit-identical
            compatibility path).
        retry: retry policy for failed requests — ``none`` (failures are
            final), ``backoff``, or ``deadline``
            (:data:`~repro.serve.retry.RETRY_POLICIES`).
        retry_max_attempts: total service attempts allowed per request.
        hedge_seconds: duplicate a still-unfinished request onto a second
            queue after this long (``0`` disables hedging).
        label: display name; auto-derived when empty.

    Every other knob takes its collaborator's own default: the
    autoscaler's evaluation cadence and cooldowns
    (:class:`~repro.serve.autoscale.AutoscalerPolicy`), the quota burst
    (:class:`~repro.serve.admission.AdmissionController`), the retry
    base delay and deadline (:class:`~repro.serve.retry.RetryPolicy`),
    and the engine's burn-rate budget and window.
    """

    dataset: str = "ppi"
    scale: float = 0.05
    arrival: str = "poisson"
    qps: float = 100.0
    duration_seconds: float = 2.0
    num_tenants: int = 2
    max_batch: int = 8
    max_wait_seconds: float = 0.005
    policy: str = "fifo"
    instances: int = 2
    fleet: str = ""
    routing: str = "shared_queue"
    slo_seconds: float = 0.05
    seed: int = 0
    autoscaler: str = "none"
    autoscale_target: float = 0.7
    warmup_seconds: float = 0.02
    min_instances: int = 1
    max_instances: int = 16
    admission: str = "none"
    queue_budget: int = 64
    tenant_quota_qps: float = 0.0
    tarpit_seconds: float = 0.02
    metrics_backend: str = "exact"
    faults: str = ""
    retry: str = "none"
    retry_max_attempts: int = 3
    hedge_seconds: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; "
                f"choose from {sorted(ARRIVALS)}"
            )
        if self.qps <= 0:
            raise ValueError(f"qps must be positive, got {self.qps}")
        if self.duration_seconds <= 0:
            raise ValueError("duration must be positive")
        if self.num_tenants < 1:
            raise ValueError("need at least one tenant")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.fleet:
            # Normalize: canonical string form, and the fleet's total wins
            # over any separately-supplied instance count (so labels,
            # clamp-band checks, and content hashes all agree).
            spec = FleetSpec.parse(self.fleet)
            object.__setattr__(self, "fleet", spec.render())
            object.__setattr__(self, "instances", spec.total())
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; "
                f"choose from {sorted(ROUTING_POLICIES)}"
            )
        if self.instances < 1:
            raise ValueError("need at least one instance")
        if self.slo_seconds <= 0:
            raise ValueError("SLO must be positive")
        if self.autoscaler != "none" and self.autoscaler not in AUTOSCALERS:
            raise ValueError(
                f"unknown autoscaler {self.autoscaler!r}; choose 'none' or "
                f"one of {sorted(AUTOSCALERS)}"
            )
        if self.autoscale_target <= 0:
            raise ValueError("autoscale_target must be positive")
        if self.warmup_seconds < 0:
            raise ValueError("warmup_seconds must be non-negative")
        if self.min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        if self.max_instances < self.min_instances:
            raise ValueError("max_instances must be >= min_instances")
        if self.autoscaler != "none" and not (
            self.min_instances <= self.instances <= self.max_instances
        ):
            raise ValueError(
                f"initial fleet ({self.instances}) must sit inside the "
                f"autoscaler band [{self.min_instances}, {self.max_instances}]"
            )
        if self.admission != "none" and self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.admission!r}; choose 'none' or "
                f"one of {ADMISSION_MODES}"
            )
        if self.queue_budget < 0:
            raise ValueError("queue_budget must be >= 0")
        if self.tenant_quota_qps < 0:
            raise ValueError("tenant_quota_qps must be >= 0")
        if self.tarpit_seconds <= 0:
            raise ValueError("tarpit_seconds must be positive")
        if self.metrics_backend not in SKETCH_BACKENDS:
            raise ValueError(
                f"unknown metrics backend {self.metrics_backend!r}; "
                f"choose from {SKETCH_BACKENDS}"
            )
        if self.faults:
            # Normalize to the canonical string form (named presets
            # expand, defaulted fields drop) so labels and content
            # hashes agree for equivalent specs.
            spec = FaultSpec.parse(self.faults)
            object.__setattr__(
                self, "faults", spec.render() if spec.enabled else ""
            )
        if self.retry not in RETRY_POLICIES:
            raise ValueError(
                f"unknown retry mode {self.retry!r}; "
                f"choose from {RETRY_POLICIES}"
            )
        if self.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if self.hedge_seconds < 0:
            raise ValueError("hedge_seconds must be non-negative")

    @property
    def display_label(self) -> str:
        """The explicit label when given, else the auto-derived one."""
        return self.label or self.auto_label()

    def auto_label(self) -> str:
        """Readable name derived from the discriminating knobs."""
        parts = [self.arrival, f"q{self.qps:g}", f"b{self.max_batch}",
                 f"i{self.instances}"]
        if self.fleet:
            # "small:2,large:1" -> "small2+large1"
            parts.append(self.fleet.replace(":", "").replace(",", "+"))
        if self.routing != "shared_queue":
            parts.append(self.routing)
        if self.policy != "fifo":
            parts.append(self.policy)
        if self.num_tenants != 2:
            parts.append(f"t{self.num_tenants}")
        if self.autoscaler != "none":
            # The setpoint is part of the name: target sweeps would
            # otherwise produce indistinguishable rows.
            parts.append(f"as-{self.autoscaler}@{self.autoscale_target:g}")
        if self.admission != "none":
            parts.append(self.admission)
        if self.faults:
            parts.append("faulted")
        if self.retry != "none":
            parts.append(f"retry-{self.retry}")
        if self.hedge_seconds > 0:
            parts.append(f"hedge{self.hedge_seconds * 1e3:g}ms")
        parts.append(f"s{self.seed}")
        return "-".join(parts)

    def describe(self) -> dict[str, Any]:
        """Plain-dict form (what serving records and exports carry)."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "label"}
        out["label"] = self.display_label
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingScenario":
        """Rebuild a scenario from :meth:`describe` output (extras ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(data).items() if k in names})

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def tenant_mix(self) -> TenantMix:
        """Equal-weight tenants sharing the stream."""
        return TenantMix.uniform(self.num_tenants)

    def build_arrivals(self):
        """The scenario's arrival process.

        The diurnal "day" is compressed to the admission window so every
        simulation sees one full peak-and-trough cycle (and the window's
        time-average rate equals the nominal QPS) regardless of duration.
        """
        extra = (
            {"period_seconds": self.duration_seconds}
            if self.arrival == "diurnal"
            else {}
        )
        return make_arrivals(
            self.arrival,
            self.qps,
            mix=self.tenant_mix(),
            seed=self.seed,
            **extra,
        )

    def build_scheduler(self) -> BatchingScheduler:
        """A fresh batching scheduler with the scenario's knobs."""
        return BatchingScheduler(
            max_batch=self.max_batch,
            max_wait_seconds=self.max_wait_seconds,
            policy=self.policy,
        )

    def build_autoscaler(self) -> AutoscalerPolicy | None:
        """The scenario's fleet controller (``None`` for a static fleet)."""
        if self.autoscaler == "none":
            return None
        return make_autoscaler(
            self.autoscaler,
            target=self.autoscale_target,
            min_instances=self.min_instances,
            max_instances=self.max_instances,
        )

    def build_admission(self) -> AdmissionController | None:
        """The scenario's admission gate (``None`` for open-loop intake)."""
        if self.admission == "none":
            return None
        return AdmissionController(
            mode=self.admission,
            queue_budget=self.queue_budget,
            tenant_quota_qps=self.tenant_quota_qps,
            tarpit_seconds=self.tarpit_seconds,
        )

    def build_engine(
        self,
        service: ServiceModel,
        recorder: TraceRecorder | None = None,
        registry: MetricRegistry | None = None,
        sampler: Sampler | None = None,
    ) -> ServingEngine:
        """The fully assembled engine: scheduler + fleet + controllers.

        The ``fleet`` and ``faults`` strings are parsed here, once; the
        engine takes only parsed specs.  One scenario seed drives
        routing, fault injection and retry jitter.  The telemetry
        collaborators are injected per run, never part of the scenario —
        they observe an outcome without changing it (and therefore stay
        out of the content hash).
        """
        return ServingEngine(
            scheduler=self.build_scheduler(),
            service=service,
            instances=self.instances,
            slo_seconds=self.slo_seconds,
            autoscaler=self.build_autoscaler(),
            admission=self.build_admission(),
            warmup_seconds=self.warmup_seconds,
            recorder=recorder,
            registry=registry,
            sampler=sampler,
            metrics_backend=self.metrics_backend,
            fleet=FleetSpec.parse(self.fleet) if self.fleet else None,
            routing=self.routing,
            faults=FaultSpec.parse(self.faults) if self.faults else None,
            retry=make_retry_policy(
                self.retry, max_attempts=self.retry_max_attempts, seed=self.seed
            ),
            hedge_seconds=self.hedge_seconds,
            seed=self.seed,
        )


def serving_key(scenario: ServingScenario) -> str:
    """Content hash of everything that determines a serving outcome."""
    payload = scenario.describe()
    del payload["label"]  # presentation, not content
    payload["schema"] = SERVE_SCHEMA_VERSION
    payload["kind"] = "serving"
    return stable_digest(payload)


#: :class:`ServingRecord` fields that identify or describe a run rather
#: than measure it (left out of :meth:`ServingRecord.metrics`).
_NOT_METRICS = frozenset(
    {"label", "key", "scenario", "eval_seconds", "fleet", "routing", "cached"}
)


@dataclass(frozen=True)
class ServingRecord:
    """Flat, JSON-serializable outcome of one serving scenario."""

    label: str
    key: str
    scenario: dict[str, Any]
    offered: int
    completed: int
    throughput_qps: float
    utilization: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p95_latency_seconds: float
    p99_latency_seconds: float
    max_latency_seconds: float
    slo_violation_rate: float
    mean_queue_depth: float
    peak_queue_depth: int
    mean_batch_size: float
    eval_seconds: float
    instance_seconds: float = 0.0
    peak_instances: int = 0
    scale_events: int = 0
    admitted: int = 0
    shed: int = 0
    shed_rate: float = 0.0
    tarpitted: int = 0
    overall_burn_rate: float = 0.0
    peak_burn_rate: float = 0.0
    fleet: str = ""
    routing: str = "shared_queue"
    cost_dollars: float = 0.0
    failed: int = 0
    retries: int = 0
    crashes: int = 0
    hedges_fired: int = 0
    hedges_cancelled: int = 0
    availability: float = 1.0
    cached: bool = False

    def metrics(self) -> dict[str, float]:
        """The measured outcome alone — invariant under caching/timing."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _NOT_METRICS
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (what the result store persists)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], cached: bool = False
    ) -> "ServingRecord":
        """Revive a stored record (unknown keys from older schemas dropped)."""
        payload = {
            k: v for k, v in dict(data).items() if k in cls.__dataclass_fields__
        }
        payload["cached"] = cached
        return cls(**payload)

    @classmethod
    def from_report(
        cls,
        scenario: ServingScenario,
        report: ServingReport,
        key: str,
        eval_seconds: float,
    ) -> "ServingRecord":
        """Flatten a full engine report into the storable record.

        Every record field the report carries under the same name (each
        :class:`~repro.serve.engine.RunCounters` field included) is
        copied as is; the rest derive from the report's summaries.
        """
        shared = {
            f.name: getattr(report, f.name)
            for f in fields(cls)
            if hasattr(report, f.name)
        }
        burn = report.burn
        return cls(
            **shared,
            label=scenario.display_label,
            key=key,
            scenario=scenario.describe(),
            eval_seconds=eval_seconds,
            mean_latency_seconds=report.latency.mean,
            p50_latency_seconds=report.latency.p50,
            p95_latency_seconds=report.latency.p95,
            p99_latency_seconds=report.latency.p99,
            max_latency_seconds=report.latency.max,
            scale_events=len(report.scaling),
            shed_rate=(
                report.admission.shed_rate if report.admission is not None else 0.0
            ),
            overall_burn_rate=burn.overall_burn_rate if burn is not None else 0.0,
            peak_burn_rate=burn.peak_burn_rate if burn is not None else 0.0,
        )


#: In-process calibration cache: the accelerator service model evaluates
#: once per (dataset, scale, seed) and every scenario sharing that
#: workload reuses the calibrated pipeline numbers.
_SERVICE_CACHE: dict[tuple[str, float, int], AcceleratorServiceModel] = {}


def _service_for(scenario: ServingScenario) -> AcceleratorServiceModel:
    cache_key = (scenario.dataset, scenario.scale, scenario.seed)
    model = _SERVICE_CACHE.get(cache_key)
    if model is None:
        model = AcceleratorServiceModel(
            dataset=scenario.dataset, scale=scenario.scale, seed=scenario.seed
        )
        _SERVICE_CACHE[cache_key] = model
    return model


def simulate_serving_scenario(
    scenario: ServingScenario,
    service: ServiceModel | None = None,
    arrivals: ArrivalProcess | None = None,
    recorder: TraceRecorder | None = None,
    registry: MetricRegistry | None = None,
    sampler: Sampler | None = None,
) -> ServingReport:
    """Run one scenario through the engine and return the full report.

    ``arrivals`` substitutes the scenario's own arrival model (e.g. a
    :class:`~repro.serve.arrivals.TraceArrivals` replay for ``repro serve
    --trace-file``); the scenario then only contributes the scheduler,
    fleet, and SLO knobs.  The telemetry collaborators (``recorder`` /
    ``registry`` / ``sampler``) pass straight through to the engine.
    """
    service = service if service is not None else _service_for(scenario)
    arrivals = arrivals if arrivals is not None else scenario.build_arrivals()
    engine = scenario.build_engine(
        service, recorder=recorder, registry=registry, sampler=sampler
    )
    return engine.run(
        requests=arrivals.generate(scenario.duration_seconds),
        horizon_seconds=scenario.duration_seconds,
    )


def run_serving_scenario(
    scenario: ServingScenario,
    service: ServiceModel | None = None,
    store: ResultStore | None = None,
    key: str | None = None,
) -> ServingRecord:
    """Evaluate one serving scenario, consulting/feeding the result store.

    A custom ``service`` model bypasses the store entirely — the cache key
    only describes the scenario, not an arbitrary injected model.
    """
    key = key if key is not None else serving_key(scenario)
    if store is not None and service is None:
        stored = store.get(key)
        if stored is not None:
            return ServingRecord.from_dict(stored, cached=True)
    start = time.perf_counter()
    report = simulate_serving_scenario(scenario, service=service)
    record = ServingRecord.from_report(
        scenario, report, key, eval_seconds=time.perf_counter() - start
    )
    if store is not None and service is None:
        store.put(key, record.to_dict())
    return record


def scenario_with(scenario: ServingScenario, **overrides: Any) -> ServingScenario:
    """``dataclasses.replace`` with the label re-derived from the knobs."""
    changed = replace(scenario, **overrides, label="")
    return replace(changed, label=changed.auto_label())
