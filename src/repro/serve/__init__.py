"""Serving engine: multi-tenant GNN inference traffic on the accelerator.

The workload layer on top of the architecture model: streams of per-user
inference requests arrive over time, an admission controller decides what
may enter, a batching scheduler packs admitted requests onto replicated
accelerator instances, an autoscaler grows and shrinks that replica pool
against the load, and a discrete-event loop measures what a serving
system actually cares about — per-tenant tail latency, throughput, queue
depths, utilization, instance-seconds, and SLO violations.

The pieces:

* :mod:`repro.serve.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty MMPP, diurnal, trace replay) emitting a common
  ``Request`` stream, plus a closed-loop client pool.
* :mod:`repro.serve.service` — per-batch service times derived from the
  inference-mode ``evaluate()`` pipeline, memoized by batch shape.
* :mod:`repro.serve.admission` — token-bucket per-tenant quotas and
  queue-budget load shedding (shed or tarpit) in front of the scheduler.
* :mod:`repro.serve.scheduler` — size-or-deadline batching with FIFO or
  weighted-fair (stride) composition across tenants.
* :mod:`repro.serve.autoscale` — pluggable fleet controllers
  (target-utilization and queue-depth PID) with cooldowns and instance
  warm-up, closing the loop the capacity planner answers statically.
* :mod:`repro.serve.fleet` — typed instances (``small``/``default``/
  ``large``) and heterogeneous fleet compositions with per-type warm-up,
  batch ceilings, service scaling, and $-cost accounting.
* :mod:`repro.serve.routing` — pluggable routing between admission and
  the per-target schedulers: shared queue (the bit-identical default),
  size affinity, power-of-two-choices, tenant pinning.
* :mod:`repro.serve.engine` — the priority-queue simulation loop, the
  dynamic typed fleet, and the per-tenant SLO analytics report.
* :mod:`repro.serve.scenario` / :mod:`repro.serve.sweep` /
  :mod:`repro.serve.presets` — declarative serving scenarios swept through
  the generic campaign machinery with store-backed caching.
* :mod:`repro.serve.capacity` — capacity planning: binary search for the
  minimum single-type fleet, cost-ordered composition search for the
  cheapest heterogeneous fleet meeting a target SLO at a given load,
  and N+k availability-aware sizing against worst-case outages.
* :mod:`repro.serve.faults` — seeded deterministic fault injection:
  per-instance crash-and-recover, transient slowdowns, and correlated
  zone outages driven through the event loop as first-class events.
* :mod:`repro.serve.retry` — client-side reliability policies: retry
  with deterministic exponential backoff or deadline awareness, plus
  hedged dispatch (duplicate to a second target, first copy wins).
"""

from repro.serve.arrivals import (
    ARRIVALS,
    ArrivalProcess,
    ClosedLoopPool,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    TenantMix,
    TraceArrivals,
    empirical_qps,
    load_trace,
    make_arrivals,
    save_trace,
)
from repro.serve.admission import (
    ADMISSION_MODES,
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
    TokenBucket,
)
from repro.serve.autoscale import (
    AUTOSCALERS,
    AutoscalerPolicy,
    AutoscaleStats,
    FleetSnapshot,
    QueueDepthPIDAutoscaler,
    ScalingEvent,
    TargetUtilizationAutoscaler,
    make_autoscaler,
)
from repro.serve.autoscale import allocate_fleet
from repro.serve.capacity import (
    CapacityPlan,
    FleetPlan,
    enumerate_fleets,
    meets_slo,
    plan_capacity,
    plan_fleet,
    survivable_fleets,
)
from repro.serve.faults import (
    DEFAULT_FAULTS,
    FaultInjector,
    FaultSpec,
)
from repro.serve.engine import (
    RunCounters,
    ServingEngine,
    ServingReport,
    TenantReport,
)
from repro.serve.fleet import (
    INSTANCE_TYPES,
    FleetSpec,
    InstanceType,
    ReplicaPool,
    TypedReplicaPool,
    TypeUsage,
    fleet_with_total,
    get_instance_type,
)
from repro.serve.retry import (
    RETRY_POLICIES,
    RetryPolicy,
    make_retry_policy,
)
from repro.serve.routing import (
    ROUTING_POLICIES,
    SHARED,
    PowerOfTwoRouting,
    RoutingPolicy,
    SharedQueueRouting,
    SizeAffinityRouting,
    TenantPinRouting,
    make_routing,
)
from repro.serve.presets import (
    SERVING_PRESETS,
    get_serving_preset,
    serving_preset_names,
)
from repro.serve.scenario import (
    SERVE_SCHEMA_VERSION,
    ServingRecord,
    ServingScenario,
    run_serving_scenario,
    scenario_with,
    serving_key,
    simulate_serving_scenario,
)
from repro.serve.scheduler import POLICIES, Batch, BatchingScheduler
from repro.serve.service import (
    AcceleratorServiceModel,
    LinearServiceModel,
    ServiceModel,
)
from repro.serve.sweep import run_serving_campaign, serving_table

__all__ = [
    "Request",
    "TenantMix",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "ClosedLoopPool",
    "ARRIVALS",
    "make_arrivals",
    "empirical_qps",
    "save_trace",
    "load_trace",
    "ServiceModel",
    "LinearServiceModel",
    "AcceleratorServiceModel",
    "Batch",
    "BatchingScheduler",
    "POLICIES",
    "ADMISSION_MODES",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "TokenBucket",
    "AUTOSCALERS",
    "AutoscalerPolicy",
    "AutoscaleStats",
    "FleetSnapshot",
    "QueueDepthPIDAutoscaler",
    "ScalingEvent",
    "TargetUtilizationAutoscaler",
    "make_autoscaler",
    "ReplicaPool",
    "RunCounters",
    "ServingEngine",
    "ServingReport",
    "TenantReport",
    "ServingScenario",
    "ServingRecord",
    "SERVE_SCHEMA_VERSION",
    "serving_key",
    "simulate_serving_scenario",
    "run_serving_scenario",
    "scenario_with",
    "run_serving_campaign",
    "serving_table",
    "SERVING_PRESETS",
    "get_serving_preset",
    "serving_preset_names",
    "CapacityPlan",
    "plan_capacity",
    "meets_slo",
    "InstanceType",
    "INSTANCE_TYPES",
    "get_instance_type",
    "FleetSpec",
    "TypedReplicaPool",
    "TypeUsage",
    "fleet_with_total",
    "allocate_fleet",
    "RoutingPolicy",
    "SharedQueueRouting",
    "SizeAffinityRouting",
    "PowerOfTwoRouting",
    "TenantPinRouting",
    "ROUTING_POLICIES",
    "SHARED",
    "make_routing",
    "FleetPlan",
    "plan_fleet",
    "enumerate_fleets",
    "survivable_fleets",
    "FaultSpec",
    "FaultInjector",
    "DEFAULT_FAULTS",
    "RetryPolicy",
    "RETRY_POLICIES",
    "make_retry_policy",
]
