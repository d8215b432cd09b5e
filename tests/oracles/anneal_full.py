"""Reference copy of the full-recompute simulated-annealing stage mapper.

``repro.core.mapping.anneal_mapping`` used to offer a second cost mode that
re-materialized every leg's pairwise-distance matrix on each proposal
(``_mapping_cost``).  The library now keeps the cost as exact integer
running state (``IncrementalCost``).  The full-recompute annealer is kept
here verbatim so the differential tests in
``tests/test_core_mapping_incremental.py`` (and the speedup benchmark in
``benchmarks/test_bench_mapping.py``) can assert that the library draws
the same RNG sequence and returns the same best :class:`StageMap`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ReGraphXConfig
from repro.core.mapping import (
    StageMap,
    communication_legs,
    contiguous_mapping,
    default_sa_iterations,
)
from repro.utils.rng import rng_from_seed


def _mapping_cost(
    assignment: dict[str, tuple[int, ...]],
    legs: list[tuple[str, str]],
    leg_volumes: dict[tuple[str, str], float],
    coords: np.ndarray,
) -> float:
    """Volume-weighted mean Manhattan distance between stage groups."""
    cost = 0.0
    for leg in legs:
        src, dst = leg
        a = np.asarray(assignment[src])
        b = np.asarray(assignment[dst])
        dist = np.abs(coords[a][:, None, :] - coords[b][None, :, :]).sum(axis=2)
        cost += leg_volumes.get(leg, 1.0) * float(dist.mean())
    return cost


def _anneal_once(
    config: ReGraphXConfig,
    leg_volumes: dict[tuple[str, str], float] | None,
    iterations: int,
    initial_temperature: float,
    rng: np.random.Generator,
    training: bool,
) -> tuple[dict[str, tuple[int, ...]], float]:
    """One annealing run; returns (best assignment, best cost)."""
    legs = communication_legs(config.num_layers, training)
    volumes = leg_volumes or {}
    topo = config.topology
    coords = np.asarray([topo.coords(r) for r in range(topo.num_routers)], dtype=float)

    current = {
        s: list(r) for s, r in contiguous_mapping(config, training).assignment.items()
    }
    v_stages = [s for s in current if s.lstrip("B").startswith("V")]
    e_stages = [s for s in current if s.lstrip("B").startswith("E")]

    def snapshot() -> dict[str, tuple[int, ...]]:
        return {s: tuple(r) for s, r in current.items()}

    cost = _mapping_cost(snapshot(), legs, volumes, coords)
    best, best_cost = snapshot(), cost
    if iterations == 0:
        return best, best_cost
    alpha = 0.01 ** (1.0 / iterations)  # decay to 1% of T0
    temperature = initial_temperature * cost / max(len(legs), 1)
    for _ in range(iterations):
        pool = v_stages if rng.random() < 0.5 else e_stages
        if len(pool) < 2:
            # Degenerate pool (e.g. a 1-layer inference pipeline has a
            # single V and a single E stage): nothing to swap — keep the
            # temperature schedule ticking and move on.
            temperature *= alpha
            continue
        s1, s2 = rng.choice(len(pool), size=2, replace=False)
        stage_a, stage_b = pool[s1], pool[s2]
        ia = int(rng.integers(len(current[stage_a])))
        ib = int(rng.integers(len(current[stage_b])))
        router_a, router_b = current[stage_a][ia], current[stage_b][ib]
        current[stage_a][ia], current[stage_b][ib] = router_b, router_a
        new_cost = _mapping_cost(snapshot(), legs, volumes, coords)
        accept = new_cost <= cost or rng.random() < np.exp(
            (cost - new_cost) / max(temperature, 1e-12)
        )
        if accept:
            cost = new_cost
            if cost < best_cost:
                best, best_cost = snapshot(), cost
        else:  # undo
            current[stage_a][ia], current[stage_b][ib] = router_a, router_b
        temperature *= alpha
    return best, best_cost


def anneal_mapping(
    config: ReGraphXConfig,
    leg_volumes: dict[tuple[str, str], float] | None = None,
    iterations: int | None = None,
    initial_temperature: float = 2.0,
    seed: int | np.random.Generator | None = 0,
    training: bool = True,
) -> StageMap:
    """One full-recompute annealing run from ``seed`` (no restarts)."""
    if iterations is None:
        iterations = default_sa_iterations(config)
    best, _ = _anneal_once(
        config, leg_volumes, iterations, initial_temperature,
        rng_from_seed(seed), training,
    )
    return StageMap(best)
