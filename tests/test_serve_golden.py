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


#: Case index -> digest, recorded on the engine before the hot-path work
#: (arrival stream off the event heap, cached WFQ head, fused P² update,
#: bisect tenant draws).
GOLDEN = {
    0: "680c92431d92a9bd65f9fcf77e70787d",
    1: "011e6804cf2a0cc182419eed2d49f9a9",
    2: "ba64eaef92ad7961fa23dfbbb9c60000",
    3: "43b8678ab2626d59dda4f48f074e30b4",
    4: "ceff36c3b340b723f30b52a16c57dbaa",
    5: "76b0465b044a12cb1307d5c7a58d8981",
    6: "e390cdbc7f9efc9500492781a4ecaf54",
    7: "f8d6e25ddc9412f2887a50a8760bbd6a",
    8: "92b0fb29a3b90b6321edb7cd1fb79b77",
    9: "4fccd58519a297e952915138ee04d2c7",
    10: "e02612aa69849d3799ca6fee50ba51ec",
    11: "3f780ae3af98f1adf0f7526dd296ec22",
    12: "06ed46935c4eca1e2a754694e29a8494",
    13: "aa47bd01df62027cabab671dcec90f56",
    14: "3ad72c6dfbec776f2d5350de549168f6",
    15: "7bf8103216f8e1eb7058c83fefe6a8db",
    16: "ac7ba2f8b9b12c65376407886bc87f46",
    17: "3e2b2681e5b93ef17d73b196fc445056",
    18: "b30c4db59e578380e490fe4e3a4377ea",
    19: "93980173cddfcaa51857682e5b9897c4",
    20: "abef057ba6d224cca4adf81c869661c1",
    21: "43e9b3b6faa4dc08215c11f07bfa75c4",
    22: "f43bc8f78c11aa121c33472c07fda328",
    23: "f523deae130cfeaf3d0945f834cc82a1",
    24: "0b4fa6745e5a4782faf482fe8a6b8cfd",
    25: "92423c7acc2c72200b765398b0be4466",
    26: "b0a978d319e1bf43e5dfd39dad993565",
    27: "9722e86492d4d8d6720b850232370179",
    28: "95292a66ef8341e1e6ee260d91ffc159",
    29: "d4dc54d54881577f2771f399662cf606",
    30: "227bf08a7c3c574c7682cbcd571eab8f",
    31: "e8b356f97142a7fc0754f0710ec70c9a",
    32: "dbfdc0a6c7a8f2b90b78cfdbe4d29d5b",
    33: "dcc0fdab5f04439dc750b06ba7169f4c",
    34: "bb317547879169b5ae2f1152bb44d67b",
    35: "e02ca62622e0b35633215995e187646a",
    36: "8cd9556390ecc44be3aba40bc5bb4359",
    37: "33bac83293219b40494c342b0fc7ac9f",
    38: "7b301545681cfd364609c5fbd56ac5a3",
    39: "9e7ebbfd7f79a156975566d0cf7b9da6",
    40: "17a13b33d899ccfb011f0746682f0d88",
    41: "9ef4fde834ebca03a81d7654313338e2",
    42: "9f3a6a00d229c58af5e5559df1909962",
    43: "063cb9775706f23edce94e846763f05d",
    44: "47ed5b9419c41c9180c35089d749627d",
    45: "811781a055fe86f0823e5cc965dcebd3",
    46: "11d39882f1e6b710a53b85b355a8fc1a",
    47: "d2060ffc7ed6ee0a9e8f30498a15f0b5",
}

#: perfbench serving workloads at 5000 requests -> digest.
PERFBENCH_GOLDEN = {
    "serve-chaos": "daaf42a0872d79793646214117d688af",
    "serve-steady": "318419fbfa3480dce18a2eb76a7b522c",
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
