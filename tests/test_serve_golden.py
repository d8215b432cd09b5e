"""Golden digests of the serving engine's full output.

Each case runs one generated knob combination through the engine with
every telemetry collaborator attached and hashes everything the run
produces: the whole :class:`~repro.serve.engine.ServingReport` (every
field, nested summaries included) and its render, the trace recorder's
spans, the sampler rows and the metric registry's export.  An engine
change that moves one float, span or sample row fails here.

The combinations come from a seeded ``random.Random``, not from
hypothesis, so the case list (and the digest each is pinned to) is the
same on every Python and hypothesis version.  They cover every arrival
kind (``trace`` is a replay with tied arrival times), fifo and wfq with
unequal tenant weights, typed fleets under every routing policy, both
autoscalers, shed and tarpit admission, faults with retries and hedging,
closed-loop pools and both sketch backends; ``test_cases_cover_every_knob``
holds the generator to that.  Two more cases are the perfbench serving
workloads (``serve-steady`` and ``serve-chaos``) cut at 5000 requests on
the calibrated accelerator service model.

Floats are hashed by ``float.hex`` after a canonical walk, so the digests
do not depend on how numpy or Python spell a number.  A deliberate model
change must re-pin these digests (and bump ``SERVE_SCHEMA_VERSION``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import fields, is_dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from repro.obs import MemoryTraceRecorder
from repro.obs.metrics import MetricRegistry, Sampler
from repro.serve.arrivals import (
    ClosedLoopPool,
    Request,
    TenantMix,
    TraceArrivals,
    make_arrivals,
)
from repro.serve.routing import ROUTING_POLICIES
from repro.serve.scenario import ServingScenario
from repro.serve.scheduler import BatchingScheduler
from repro.serve.service import AcceleratorServiceModel, LinearServiceModel

SERVICE = LinearServiceModel(base_seconds=0.002, per_node_seconds=2e-6)
DURATION = 0.3

#: Three tenants at unequal draw and wfq weights, with unequal size
#: weights: the mix the weighted cases share.
WEIGHTED_MIX = TenantMix(
    tenants=(("gold", 3.0), ("silver", 1.0), ("bronze", 0.5)),
    graph_sizes=(256, 1024, 4096),
    size_weights=(5.0, 2.0, 1.0),
)
WFQ_WEIGHTS = {"gold": 4.0, "silver": 1.5, "bronze": 1.0}

ARRIVAL_KINDS = ("poisson", "mmpp", "diurnal", "trace")
FLEETS = ("", "small:2,large:1", "small:1,default:2")
FAULTS = (
    "", "default", "mtbf=0.1,mttr=0.05", "slow_mtbf=0.1", "zones=2,zone_mtbf=0.1"
)


def _generate_cases(n: int = 48, seed: int = 2024) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        fleet = rng.choice(FLEETS)
        cases.append(
            dict(
                arrival=ARRIVAL_KINDS[i % len(ARRIVAL_KINDS)],
                qps=rng.choice((150.0, 400.0)),
                max_batch=rng.choice((2, 8)),
                max_wait_seconds=rng.choice((0.002, 0.005)),
                policy=rng.choice(("fifo", "wfq")),
                weighted=rng.random() < 0.5,
                instances=rng.choice((1, 2)),
                fleet=fleet,
                routing=(
                    rng.choice(sorted(ROUTING_POLICIES)) if fleet else "shared_queue"
                ),
                autoscaler=rng.choice(("none", "target-util", "queue-pid")),
                admission=rng.choice(("none", "shed", "tarpit")),
                queue_budget=rng.choice((4, 32)),
                faults=rng.choice(FAULTS),
                retry=rng.choice(("none", "backoff", "deadline")),
                hedge_seconds=rng.choice((0.0, 0.005, 0.02)),
                metrics_backend=rng.choice(("exact", "p2")),
                closed_loop=rng.random() < 0.25,
                seed=rng.randrange(2**16),
            )
        )
    return cases


CASES = _generate_cases()


def _canon(value):
    """A repr-stable tree: floats by ``float.hex``, dataclasses by field."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if is_dataclass(value):
        return [type(value).__name__] + [
            (f.name, _canon(getattr(value, f.name))) for f in fields(value)
        ]
    if isinstance(value, dict):
        return [(_canon(k), _canon(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest(*parts) -> str:
    payload = repr(_canon(list(parts)))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _trace_stream(mix: TenantMix, qps: float, seed: int) -> TraceArrivals:
    """A replay whose arrival times sit on a 1 ms grid, so many tie."""
    stream = make_arrivals("poisson", qps, mix=mix, seed=seed).generate(DURATION)
    return TraceArrivals(
        [
            Request(
                tenant=r.tenant,
                graph_size=r.graph_size,
                arrival_time=round(r.arrival_time, 3),
                request_id=r.request_id,
            )
            for r in stream
        ]
    )


def run_case(case: dict) -> str:
    knobs = {
        k: v
        for k, v in case.items()
        if k not in ("arrival", "weighted", "closed_loop")
    }
    arrival = case["arrival"]
    scenario = ServingScenario(
        duration_seconds=DURATION,
        arrival="poisson" if arrival == "trace" else arrival,
        num_tenants=2,
        **knobs,
    )
    mix = WEIGHTED_MIX if case["weighted"] else scenario.tenant_mix()
    recorder = MemoryTraceRecorder(sample="all")
    registry = MetricRegistry()
    sampler = Sampler(0.05)
    engine = scenario.build_engine(
        SERVICE, recorder=recorder, registry=registry, sampler=sampler
    )
    if case["policy"] == "wfq" and case["weighted"]:
        engine.scheduler = BatchingScheduler(
            max_batch=scenario.max_batch,
            max_wait_seconds=scenario.max_wait_seconds,
            policy="wfq",
            tenant_weights=WFQ_WEIGHTS,
        )
    if case["closed_loop"]:
        report = engine.run(
            closed_loop=ClosedLoopPool(
                num_clients=4, think_seconds=0.005, mix=mix, seed=scenario.seed
            ),
            horizon_seconds=DURATION,
        )
    else:
        if arrival == "trace":
            process = _trace_stream(mix, scenario.qps, scenario.seed)
        else:
            process = scenario.build_arrivals()
            process.mix = mix
        report = engine.run(
            requests=process.generate(DURATION), horizon_seconds=DURATION
        )
    return digest(
        report, report.render(), recorder.spans(), sampler.rows, registry.snapshot()
    )


#: Case index -> digest.  Recorded on the engine before the bit-identical
#: hot-path work (arrival stream off the event heap, cached WFQ head,
#: fused P² update, bisect tenant draws), then re-pinned once when each
#: queue went from one batching timeout per request to one per head
#: deadline and hedges to one FIFO timer.  Fewer events split the
#: occupancy integrals at fewer instants, so 36 of the 48 cases (and both
#: perfbench digests) moved, in the integral-derived report fields
#: (``utilization``, ``*_integral``, ``busy_seconds``, ``instance_seconds``,
#: ``mean_queue_depth``, ``tick_*``, ``last_time``, ``cost_dollars``,
#: per-type instance-seconds and cost) by at most 4.3e-15 relative
#: (``pool_integral``/``last_time`` past the makespan by more), the
#: sampler rows' ``utilization`` and the ``instance_seconds`` gauges.
#: Spans, latency sketches, scaling trajectories and counters stayed
#: equal except in case 47 (trace replay with faults, retries and
#: hedging): request 28 (arrival 0.169) used to dispatch at 0.174, the
#: stale timeout of a hedged duplicate enqueued at 0.16899999999999998,
#: one ulp before its own deadline 0.169 + 0.005 and inside ``ready()``'s
#: 1e-9 slack; it now dispatches at that deadline, 0.17400000000000002,
#: and its departure and the two dispatches that follow it move one ulp.
GOLDEN = {
    0: "558015a1a512447c2899911c23ba4e13",
    1: "011e6804cf2a0cc182419eed2d49f9a9",
    2: "da6ec38281eabffb508eaa435b9ade7f",
    3: "43b8678ab2626d59dda4f48f074e30b4",
    4: "ceff36c3b340b723f30b52a16c57dbaa",
    5: "91911aba15b77ff65e9d7cf0a5a58a4f",
    6: "e390cdbc7f9efc9500492781a4ecaf54",
    7: "9795ffd8809cf4026d44f44363e36be1",
    8: "7328f52c9aaacc78fbc0e72865514fa3",
    9: "1c5fe0dbd248b52c935adc2a20b251a1",
    10: "b21514f7abb91c24fc772245e4139e3f",
    11: "3f780ae3af98f1adf0f7526dd296ec22",
    12: "aa107d6c2a5d6258ba24ffe9039205c8",
    13: "f3a26eb4d92ef734d7ae0ef2dd199011",
    14: "e62bd49ca6527e6a382ffca3645b4021",
    15: "5222d62f3995d0971585ee3413576030",
    16: "ac7ba2f8b9b12c65376407886bc87f46",
    17: "3e2b2681e5b93ef17d73b196fc445056",
    18: "bba801f140dc2021327ae46549372989",
    19: "b326bc6f6cb3f656acd2ed21b99d8902",
    20: "7720f2d7e5c5eed97cc3b4ee02c8811b",
    21: "bfbd4bd1e1b685b131648d32911d21e0",
    22: "9870f7bf964a472f44ae35755dd76463",
    23: "43c586596da1cfc87cb6581f84cccb76",
    24: "06a1db9479d1a1aeade64b93cf12ea0d",
    25: "7192b57de5dbac2bbc592878ac081db5",
    26: "f4a4d8db4bc2d7dda6ca0732506234e1",
    27: "9722e86492d4d8d6720b850232370179",
    28: "77d41f7129dd25d93966c5709f03d805",
    29: "039bb1ed06659261ce08b543d4f5453e",
    30: "380cfa4af15777b55d79e2e44c7a3879",
    31: "5575f2e1ef5c9b76c2eaadbaf794bc76",
    32: "6934da4af4ff6ec3b81f3e67be2f742e",
    33: "5fe453b64df4ea44127ca1b32d6c98e8",
    34: "bb317547879169b5ae2f1152bb44d67b",
    35: "e02ca62622e0b35633215995e187646a",
    36: "b484ae2cd2aec175edef5c413e2c4f8a",
    37: "e81dd221667abd7d2c00040b435cf2ff",
    38: "7b301545681cfd364609c5fbd56ac5a3",
    39: "e0d377f60d7d4cdd7b7edd9c7ffc41eb",
    40: "21b4bab7bbfd71bae70a8e9e89ec0c37",
    41: "16cf6c5156a61ff4797f4b5b6c8fde88",
    42: "6ac24419065c72558008da140492e1c5",
    43: "063cb9775706f23edce94e846763f05d",
    44: "464d781f7234fd75ca716f2f8e5c50f5",
    45: "be634a8a2af4a4f61f070102803d1a56",
    46: "1e876e86d625a00f9a2c517ee9f0f9de",
    47: "8844cb7545a380c02f89b9005328e751",
}

#: perfbench serving workloads at 5000 requests -> digest.
PERFBENCH_GOLDEN = {
    "serve-chaos": "4f2c19c26a4b497a888c53d53589adf7",
    "serve-steady": "b6f4761e1b9b54e6f422aa106b971aef",
}

PERFBENCH_REQUESTS = 5000
PERFBENCH_SCENARIOS = {
    "serve-steady": (
        5000.0,
        dict(instances=26),
    ),
    "serve-chaos": (
        5900.0,
        dict(
            arrival="mmpp", num_tenants=4, policy="wfq",
            fleet="small:6,default:8,large:4", routing="size_affinity",
            autoscaler="target-util", max_instances=128,
            admission="shed", queue_budget=256,
            faults="default", retry="backoff", hedge_seconds=0.04,
            metrics_backend="p2",
        ),
    ),
}


@lru_cache(maxsize=None)
def _accelerator_service() -> AcceleratorServiceModel:
    return AcceleratorServiceModel(dataset="ppi", scale=0.05, seed=0)


def run_perfbench(name: str, seed: int = 0) -> str:
    """The perfbench workload's pass, its stream cut at 5000 requests."""
    qps, knobs = PERFBENCH_SCENARIOS[name]
    base = ServingScenario(
        qps=qps, duration_seconds=PERFBENCH_REQUESTS / qps, seed=seed, **knobs
    )
    window = 1.5 * base.duration_seconds
    while True:
        requests = base.build_arrivals().generate(window)
        if len(requests) > PERFBENCH_REQUESTS:
            break
        window *= 2
    scenario = replace(
        base, duration_seconds=requests[PERFBENCH_REQUESTS].arrival_time
    )
    engine = scenario.build_engine(_accelerator_service())
    report = engine.run(
        requests=scenario.build_arrivals().generate(scenario.duration_seconds),
        horizon_seconds=scenario.duration_seconds,
    )
    assert report.offered == PERFBENCH_REQUESTS
    return digest(report, report.render())


def test_cases_cover_every_knob():
    assert len(CASES) >= 40
    seen = {k: {c[k] for c in CASES} for k in CASES[0]}
    assert seen["arrival"] == set(ARRIVAL_KINDS)
    assert {"fifo", "wfq"} <= seen["policy"]
    assert any(c["policy"] == "wfq" and c["weighted"] for c in CASES)
    typed_routing = {c["routing"] for c in CASES if c["fleet"]}
    assert typed_routing == set(ROUTING_POLICIES)
    assert {"target-util", "queue-pid"} <= seen["autoscaler"]
    assert {"shed", "tarpit"} <= seen["admission"]
    assert set(FAULTS) == seen["faults"]
    assert {"backoff", "deadline"} <= seen["retry"]
    assert any(
        c["faults"] and c["retry"] != "none" and c["hedge_seconds"] for c in CASES
    )
    assert seen["closed_loop"] == {False, True}
    assert seen["metrics_backend"] == {"exact", "p2"}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_case_digest(index):
    assert run_case(CASES[index]) == GOLDEN[index]


@pytest.mark.parametrize("name", sorted(PERFBENCH_SCENARIOS))
def test_perfbench_digest(name):
    assert run_perfbench(name) == PERFBENCH_GOLDEN[name]
