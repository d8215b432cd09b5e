"""Layer-to-router mapping with simulated annealing (paper Sec. IV.D).

Each of the 4L pipeline stages (V1..VL, E1..EL and their backward twins)
gets a disjoint set of routers: V stages draw from the V tier, E stages
from the two E tiers.  The SA optimizer (following GRAMARCH [12]) swaps
routers between stages to pull heavily-communicating stage pairs close,
minimizing a volume-weighted distance cost — the proxy for long-range and
multicast traffic the paper optimizes.

The annealer keeps per-leg cross-group distance sums as exact integer
running state (:class:`IncrementalCost`) and updates only the legs
incident to the two swapped stages on each proposal — O(legs touched)
bookkeeping per step instead of re-materializing every O(|A|·|B|)
pairwise-distance matrix.  The original full-recompute annealer lives in
``tests/oracles/anneal_full.py``; it draws the same RNG sequence, and the
differential tests assert bit-identical accept/reject decisions, so the
same seed yields the same :class:`StageMap` either way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.config import ReGraphXConfig
from repro.utils.rng import rng_from_seed, spawn_rngs

#: SA iterations at the paper's 8x8x3 design point; the default iteration
#: budget scales linearly with router count around this anchor.
_BASE_ITERATIONS = 2000
_BASE_ROUTERS = 192


def stage_names(num_layers: int, training: bool = True) -> list[str]:
    """Pipeline stage names in dataflow order (Fig. 4, generalized).

    Training: V1 E1 ... VL EL followed by the backward mirror BEL BVL ...
    BE1 BV1 (4L stages).  Inference: forward stages only (2L stages).
    """
    if num_layers < 1:
        raise ValueError("need at least one layer")
    forward = []
    for i in range(1, num_layers + 1):
        forward += [f"V{i}", f"E{i}"]
    if not training:
        return forward
    backward = []
    for i in range(num_layers, 0, -1):
        backward += [f"BE{i}", f"BV{i}"]
    return forward + backward


def communication_legs(num_layers: int, training: bool = True) -> list[tuple[str, str]]:
    """Directed stage pairs that exchange activation/gradient rows.

    Forward: Vi->Ei and Ei->Vi+1; when training, also the multicast legs
    Ei->BVi+1 (saved input activations) and Ei->BEi (saved ReLU masks),
    the loss turnaround EL->BEL, and the backward chain BEi->BVi and
    BVi->BEi-1.
    """
    legs: list[tuple[str, str]] = []
    for i in range(1, num_layers + 1):
        legs.append((f"V{i}", f"E{i}"))
        if i < num_layers:
            legs.append((f"E{i}", f"V{i + 1}"))
        if not training:
            continue
        if i < num_layers:
            legs.append((f"E{i}", f"BV{i + 1}"))
        legs.append((f"E{i}", f"BE{i}"))
        legs.append((f"BE{i}", f"BV{i}"))
        if i > 1:
            legs.append((f"BV{i}", f"BE{i - 1}"))
    return legs


@dataclass(frozen=True)
class StageMap:
    """Assignment of router sets to pipeline stages."""

    assignment: dict[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for stage, routers in self.assignment.items():
            if not routers:
                raise ValueError(f"stage {stage} has no routers")
            members = set(routers)
            if len(members) != len(routers):
                repeated = next(r for r in routers if routers.count(r) > 1)
                raise ValueError(f"stage {stage} lists router {repeated} twice")
            overlap = seen & members
            if overlap:
                raise ValueError(f"routers {overlap} assigned to multiple stages")
            seen.update(routers)

    def routers(self, stage: str) -> tuple[int, ...]:
        if stage not in self.assignment:
            raise KeyError(f"unknown stage {stage!r}")
        return self.assignment[stage]

    @property
    def stages(self) -> list[str]:
        return list(self.assignment)


def contiguous_mapping(config: ReGraphXConfig, training: bool = True) -> StageMap:
    """Baseline mapping: deal routers to stages in id order.

    V stages slice the V tier contiguously; E stages slice the
    concatenated E tiers contiguously.  Simple, deterministic, and the
    starting point for annealing.  Inference pipelines have half the
    stages, so each stage receives twice the routers.
    """
    names = stage_names(config.num_layers, training)
    v_stages = [s for s in names if s.lstrip("B").startswith("V")]
    e_stages = [s for s in names if s.lstrip("B").startswith("E")]
    v_pool = config.v_routers()
    e_pool = config.e_routers()
    per_v, per_e = config.stage_routers(training)
    assignment: dict[str, tuple[int, ...]] = {}
    for idx, stage in enumerate(v_stages):
        assignment[stage] = tuple(v_pool[idx * per_v:(idx + 1) * per_v])
    for idx, stage in enumerate(e_stages):
        assignment[stage] = tuple(e_pool[idx * per_e:(idx + 1) * per_e])
    return StageMap(assignment)


def random_mapping(
    config: ReGraphXConfig,
    seed: int | np.random.Generator | None = 0,
    training: bool = True,
) -> StageMap:
    """Random router-to-stage assignment (the SA ablation baseline).

    Respects tier constraints (V stages on the V tier, E stages on the E
    tiers) but scatters each stage's routers arbitrarily — the kind of
    placement an application-agnostic allocator would produce.  Like
    :func:`contiguous_mapping`, inference (``training=False``) builds the
    2L forward-only pipeline with twice the routers per stage.
    """
    rng = rng_from_seed(seed)
    names = stage_names(config.num_layers, training)
    v_stages = [s for s in names if s.lstrip("B").startswith("V")]
    e_stages = [s for s in names if s.lstrip("B").startswith("E")]
    v_pool = list(rng.permutation(config.v_routers()))
    e_pool = list(rng.permutation(config.e_routers()))
    per_v, per_e = config.stage_routers(training)
    assignment: dict[str, tuple[int, ...]] = {}
    for idx, stage in enumerate(v_stages):
        assignment[stage] = tuple(int(r) for r in v_pool[idx * per_v:(idx + 1) * per_v])
    for idx, stage in enumerate(e_stages):
        assignment[stage] = tuple(int(r) for r in e_pool[idx * per_e:(idx + 1) * per_e])
    return StageMap(assignment)


def default_sa_iterations(config: ReGraphXConfig) -> int:
    """Default SA budget: 2000 steps at 8x8x3, linear in router count.

    Bigger meshes have more placement freedom per stage, so the proposal
    budget grows with the router population; tiny meshes keep a floor
    that still anneals past the greedy phase.
    """
    routers = config.topology.num_routers
    return max(200, round(_BASE_ITERATIONS * routers / _BASE_ROUTERS))


class IncrementalCost:
    """Exact running state for the SA cost under single-router swaps.

    The cost is ``sum_leg w_leg * S_leg / (|A_leg| * |B_leg|)`` where
    ``S_leg`` is the integer sum of pairwise Manhattan distances between
    the leg's two stage groups.  Manhattan distances on an integer mesh
    are integers, so ``S_leg`` is maintained as exact integer state and
    :meth:`total_cost` reconstructs the float cost with the same per-leg
    term and accumulation order as the full recompute of the cost
    (``_mapping_cost`` in ``tests/oracles/anneal_full.py``) — making the
    incremental cost bit-identical to it.

    Per leg the state also carries two int64 vectors over *all* routers:
    the distance-sum to the leg's current destination group and from its
    current source group.  Replacing one router in a stage then costs two
    O(1) lookups plus one O(num_routers) vectorized vector update per
    incident leg; a rejected swap is reverted by applying the inverse
    replacements, which is exact in integer arithmetic.
    """

    def __init__(
        self,
        assignment: dict[str, tuple[int, ...] | list[int]],
        legs: list[tuple[str, str]],
        leg_volumes: dict[tuple[str, str], float],
        coords: np.ndarray,
    ) -> None:
        dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        self._D = np.asarray(np.rint(dist), dtype=np.int64)
        self._legs = list(legs)
        self._weights = [leg_volumes.get(leg, 1.0) for leg in self._legs]
        self._sizes: list[int] = []
        self._sums: list[int] = []
        self._to_dst: list[np.ndarray] = []  # per leg: sum of D[r, dst members]
        self._from_src: list[np.ndarray] = []  # per leg: sum of D[src members, r]
        self._stage_legs: dict[str, list[tuple[int, bool]]] = {}
        for idx, (src, dst) in enumerate(self._legs):
            a = np.asarray(assignment[src], dtype=np.int64)
            b = np.asarray(assignment[dst], dtype=np.int64)
            self._sizes.append(int(a.size) * int(b.size))
            self._sums.append(int(self._D[np.ix_(a, b)].sum()))
            self._to_dst.append(self._D[:, b].sum(axis=1))
            self._from_src.append(self._D[a, :].sum(axis=0))
            self._stage_legs.setdefault(src, []).append((idx, True))
            self._stage_legs.setdefault(dst, []).append((idx, False))

    def replace(self, stage: str, old: int, new: int) -> None:
        """Account for router ``old`` -> ``new`` in ``stage``'s group."""
        incident = self._stage_legs.get(stage)
        if not incident:
            return
        # The distance-row difference is the same for every incident leg.
        diff = self._D[new] - self._D[old]
        sums = self._sums
        for idx, as_src in incident:
            if as_src:
                vec = self._to_dst[idx]
                sums[idx] += int(vec[new]) - int(vec[old])
                self._from_src[idx] += diff
            else:
                vec = self._from_src[idx]
                sums[idx] += int(vec[new]) - int(vec[old])
                self._to_dst[idx] += diff

    def swap(self, stage_a: str, router_a: int, stage_b: str, router_b: int) -> None:
        """Exchange ``router_a`` (in ``stage_a``) with ``router_b``."""
        self.replace(stage_a, router_a, router_b)
        self.replace(stage_b, router_b, router_a)

    def total_cost(self) -> float:
        """The current cost, bit-identical to a full recompute."""
        cost = 0.0
        for weight, total, size in zip(self._weights, self._sums, self._sizes):
            cost += weight * (total / size)
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

    state = IncrementalCost(current, legs, volumes, coords)
    cost = state.total_cost()
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
        state.swap(stage_a, router_a, stage_b, router_b)
        new_cost = state.total_cost()
        accept = new_cost <= cost or rng.random() < np.exp(
            (cost - new_cost) / max(temperature, 1e-12)
        )
        if accept:
            cost = new_cost
            if cost < best_cost:
                best, best_cost = snapshot(), cost
        else:  # undo
            current[stage_a][ia], current[stage_b][ib] = router_a, router_b
            state.swap(stage_a, router_b, stage_b, router_a)
        temperature *= alpha
    return best, best_cost


def _anneal_restart(args: tuple) -> tuple[dict[str, tuple[int, ...]], float]:
    """Module-level worker so restart fan-out can cross process pools."""
    return _anneal_once(*args)


def anneal_mapping(
    config: ReGraphXConfig,
    leg_volumes: dict[tuple[str, str], float] | None = None,
    iterations: int | None = None,
    initial_temperature: float = 2.0,
    seed: int | np.random.Generator | None = 0,
    training: bool = True,
    restarts: int = 1,
    jobs: int = 1,
) -> StageMap:
    """Simulated-annealing refinement of :func:`contiguous_mapping`.

    Args:
        config: the architecture instance.
        leg_volumes: relative communication volume per stage pair (defaults
            to 1.0 per leg); typically filled from the workload's per-layer
            output sizes.
        iterations: SA steps (each proposes one router swap); ``None``
            scales the budget with mesh size (:func:`default_sa_iterations`,
            2000 at the paper's 8x8x3 point).
        initial_temperature: SA temperature, decayed geometrically to ~1%.
        seed: RNG seed for proposal and acceptance draws.
        training: anneal the 4L training pipeline (default) or the 2L
            forward-only inference pipeline.
        restarts: independent annealing runs; the first uses ``seed``
            exactly (so ``restarts=1`` reproduces historical results) and
            the rest use child streams spawned from it.  The best final
            cost wins, ties broken toward the earliest restart.
        jobs: worker processes for restart fan-out (``<= 1`` runs inline;
            the campaign executor keeps this at 1 inside its own pool).

    Returns:
        The best :class:`StageMap` found.
    """
    if iterations is None:
        iterations = default_sa_iterations(config)
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    rngs = [rng_from_seed(seed)]
    if restarts > 1:
        rngs += spawn_rngs(seed, restarts - 1)
    payloads = [
        (config, leg_volumes, iterations, initial_temperature, rng, training)
        for rng in rngs
    ]
    if restarts > 1 and jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, restarts)) as pool:
            results = list(pool.map(_anneal_restart, payloads))
    else:
        results = [_anneal_once(*payload) for payload in payloads]
    best, best_cost = results[0]
    for candidate, candidate_cost in results[1:]:
        if candidate_cost < best_cost:
            best, best_cost = candidate, candidate_cost
    return StageMap(best)
