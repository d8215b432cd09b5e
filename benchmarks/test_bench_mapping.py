"""Mapping-optimizer benchmark: incremental-cost annealer vs. full oracle.

The SA stage mapper sits on the critical path of every ``use_sa``
evaluation: the full-recompute oracle (``tests/oracles/anneal_full.py``)
re-materializes every leg's O(|A|·|B|) pairwise-distance matrix per
proposal, while the library's incremental engine updates exact integer
per-leg distance sums for just the legs incident to the two swapped
stages.  Both draw identical RNG sequences and must return the
bit-identical best :class:`StageMap` — the speedup is pure accounting,
not search drift.  The companion measurement times the vectorized numpy
group-by traffic extraction against its scalar oracle
(``tests/oracles/traffic_loops.py``).

The timings are printed, not recorded: perfbench's ``core.anneal_mapping.s``
and ``core.traffic.messages.s`` metrics track the production paths.
"""

from __future__ import annotations

import time

from oracles import anneal_full, traffic_loops
from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.mapping import (
    anneal_mapping,
    communication_legs,
    contiguous_mapping,
    default_sa_iterations,
)
from repro.core.traffic import GNNTrafficModel

CONFIG = ReGraphXConfig()  # the paper's 8x8x3 design point


def _volumes() -> dict[tuple[str, str], float]:
    """Non-uniform leg weights, so the cost model is exercised fully."""
    legs = communication_legs(CONFIG.num_layers)
    return {leg: float(i + 1) for i, leg in enumerate(legs)}


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def test_incremental_annealer_speedup(benchmark):
    """Acceptance: >= 10x over the full-recompute oracle at default budget."""
    volumes = _volumes()
    iterations = default_sa_iterations(CONFIG)
    assert iterations == 2000  # the 8x8 mesh anchor the budget scales from

    incremental = benchmark.pedantic(
        anneal_mapping,
        args=(CONFIG, volumes),
        kwargs={"iterations": iterations, "seed": 0},
        rounds=1, iterations=1,
    )
    # Best-of-3 for the short incremental measurement, so a preempted CI
    # runner cannot inflate a ~50 ms window into a spurious failure.
    t_incremental = min(
        _timed(anneal_mapping, CONFIG, volumes, iterations=iterations, seed=0)
        for _ in range(3)
    )
    t_full = _timed(
        anneal_full.anneal_mapping, CONFIG, volumes,
        iterations=iterations, seed=0,
    )
    full = anneal_full.anneal_mapping(
        CONFIG, volumes, iterations=iterations, seed=0
    )

    assert incremental.assignment == full.assignment  # bit-identical search

    speedup = t_full / t_incremental
    print(
        f"\n{iterations} SA iterations on 8x8x3: incremental "
        f"{t_incremental * 1e3:.1f} ms, full {t_full * 1e3:.1f} ms "
        f"-> {speedup:.0f}x speedup"
    )
    assert speedup >= 10.0


def test_traffic_extraction_speedup(benchmark):
    """Vectorized group-by extraction matches the scalar oracle, faster."""
    accelerator = ReGraphX()
    workload = accelerator.build_workload("ppi", scale=0.05, seed=0)
    model = GNNTrafficModel(
        accelerator.config,
        contiguous_mapping(accelerator.config),
        workload.block_mapping,
        workload.num_nodes_per_input,
        workload.layer_dims,
    )
    vectorized = benchmark.pedantic(model.messages, rounds=1, iterations=1)
    t_vectorized = min(_timed(model.messages) for _ in range(3))
    t_loop = _timed(traffic_loops.messages, model)
    loop = traffic_loops.messages(model)

    # Same ids, ordering, sizes and tags.
    assert [(m, m.msg_id) for m in vectorized.to_messages()] == [
        (m, m.msg_id) for m in loop
    ]

    speedup = t_loop / t_vectorized
    print(
        f"\n{len(loop)} messages: vectorized {t_vectorized * 1e3:.1f} ms, "
        f"loop {t_loop * 1e3:.1f} ms -> {speedup:.1f}x speedup"
    )
    assert speedup >= 2.0


def test_mapping_smoke(benchmark):
    """Single fast case for CI: the annealer agrees with the full-recompute
    oracle, restarts behave (run via ``-k smoke`` on every Python version)."""
    volumes = _volumes()
    incremental = benchmark.pedantic(
        anneal_mapping,
        args=(CONFIG, volumes),
        kwargs={"iterations": 300, "seed": 1},
        rounds=1, iterations=1,
    )
    full = anneal_full.anneal_mapping(CONFIG, volumes, iterations=300, seed=1)
    assert incremental.assignment == full.assignment
    multi = anneal_mapping(
        CONFIG, volumes, iterations=300, seed=1, restarts=3
    )
    again = anneal_mapping(
        CONFIG, volumes, iterations=300, seed=1, restarts=3
    )
    assert multi.assignment == again.assignment
