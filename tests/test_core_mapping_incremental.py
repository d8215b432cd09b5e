"""Differential + property tests for the incremental-cost annealer.

The annealer maintains exact integer per-leg distance sums, so
``anneal_mapping`` must be *bit-identical* to the full-recompute oracle
in ``tests/oracles/anneal_full.py``: same seed, same accepted/rejected
proposal sequence, same best :class:`StageMap`.  These tests sweep seeds,
layer counts, training and inference pipelines, and non-uniform leg
volumes, and property-test the running delta-cost state against the
oracle's ``_mapping_cost`` recomputation under long random swap
sequences (with rejections/reverts mixed in).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import anneal_full as oracle
from oracles.anneal_full import _mapping_cost
from repro.core.config import ReGraphXConfig
from repro.core.mapping import (
    IncrementalCost,
    anneal_mapping,
    communication_legs,
    contiguous_mapping,
    default_sa_iterations,
    random_mapping,
    stage_names,
)


def _coords(config: ReGraphXConfig) -> np.ndarray:
    topo = config.topology
    return np.asarray(
        [topo.coords(r) for r in range(topo.num_routers)], dtype=float
    )


def _volumes(num_layers: int, training: bool, scale: float = 1.0):
    legs = communication_legs(num_layers, training)
    return {leg: scale * (i + 1) for i, leg in enumerate(legs)}


class TestDifferential:
    """Library vs full-recompute oracle: identical costs and best maps."""

    @pytest.mark.parametrize("num_layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("training", [True, False])
    def test_layers_and_modes(self, num_layers, training):
        config = ReGraphXConfig(num_layers=num_layers)
        volumes = _volumes(num_layers, training, scale=7.25)
        for seed in (0, 1):
            full = oracle.anneal_mapping(
                config, volumes, iterations=150, seed=seed,
                training=training,
            )
            incremental = anneal_mapping(
                config, volumes, iterations=150, seed=seed,
                training=training,
            )
            assert incremental.assignment == full.assignment, (seed, num_layers)

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_seeds_uniform_volumes(self, seed):
        config = ReGraphXConfig()
        full = oracle.anneal_mapping(config, None, iterations=200, seed=seed)
        incremental = anneal_mapping(config, None, iterations=200, seed=seed)
        assert incremental.assignment == full.assignment

    def test_final_costs_bit_identical(self):
        config = ReGraphXConfig(num_layers=2)
        legs = communication_legs(2)
        volumes = _volumes(2, True, scale=0.125)
        coords = _coords(config)
        for seed in range(4):
            maps = [
                anneal(config, volumes, iterations=120, seed=seed)
                for anneal in (oracle.anneal_mapping, anneal_mapping)
            ]
            costs = [
                _mapping_cost(m.assignment, legs, volumes, coords) for m in maps
            ]
            assert costs[0] == costs[1]

    def test_nonsquare_mesh(self):
        config = ReGraphXConfig(mesh_width=6, mesh_height=4, num_layers=2)
        full = oracle.anneal_mapping(config, iterations=150, seed=9)
        incremental = anneal_mapping(config, iterations=150, seed=9)
        assert incremental.assignment == full.assignment

    @given(
        width=st.integers(3, 7),
        height=st.integers(2, 6),
        tiers=st.integers(2, 4),
        v_tier=st.integers(0, 3),
        num_layers=st.integers(1, 3),
        training=st.booleans(),
        weights=st.lists(st.floats(0.01, 100.0), min_size=15, max_size=15),
        iterations=st.integers(0, 80),
        temperature=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_generated_configs(
        self, width, height, tiers, v_tier, num_layers, training, weights,
        iterations, temperature, seed,
    ):
        """Generated knob combinations: mesh shape (non-square, 2-4 tiers,
        any V tier), layers, training/inference, leg weights, budget,
        temperature and seed."""
        config = ReGraphXConfig(
            mesh_width=width, mesh_height=height, tiers=tiers,
            v_tier=v_tier % tiers, num_layers=num_layers,
        )
        volumes = dict(zip(communication_legs(num_layers, training), weights))
        kwargs = dict(
            iterations=iterations, initial_temperature=temperature,
            seed=seed, training=training,
        )
        full = oracle.anneal_mapping(config, volumes, **kwargs)
        incremental = anneal_mapping(config, volumes, **kwargs)
        assert incremental.assignment == full.assignment


class TestIncrementalCostState:
    """The running delta-cost state tracks full recomputation exactly."""

    def _setup(self, config, training=True):
        legs = communication_legs(config.num_layers, training)
        volumes = _volumes(config.num_layers, training, scale=3.5)
        coords = _coords(config)
        current = {
            s: list(r)
            for s, r in contiguous_mapping(config, training).assignment.items()
        }
        return legs, volumes, coords, current

    def test_initial_cost_matches(self):
        config = ReGraphXConfig()
        legs, volumes, coords, current = self._setup(config)
        state = IncrementalCost(current, legs, volumes, coords)
        expected = _mapping_cost(
            {s: tuple(r) for s, r in current.items()}, legs, volumes, coords
        )
        assert state.total_cost() == expected

    @pytest.mark.parametrize("training", [True, False])
    def test_hundreds_of_random_swaps(self, training):
        """Running state == full recompute after every one of 400 swaps."""
        config = ReGraphXConfig(num_layers=3)
        legs, volumes, coords, current = self._setup(config, training)
        state = IncrementalCost(current, legs, volumes, coords)
        stages = list(current)
        rng = np.random.default_rng(2024)
        v_stages = [s for s in stages if s.lstrip("B").startswith("V")]
        e_stages = [s for s in stages if s.lstrip("B").startswith("E")]
        for step in range(400):
            pool = v_stages if rng.random() < 0.5 else e_stages
            if len(pool) < 2:
                continue
            s1, s2 = rng.choice(len(pool), size=2, replace=False)
            stage_a, stage_b = pool[s1], pool[s2]
            ia = int(rng.integers(len(current[stage_a])))
            ib = int(rng.integers(len(current[stage_b])))
            ra, rb = current[stage_a][ia], current[stage_b][ib]
            current[stage_a][ia], current[stage_b][ib] = rb, ra
            state.swap(stage_a, ra, stage_b, rb)
            if rng.random() < 0.3:  # mix in rejected-proposal reverts
                current[stage_a][ia], current[stage_b][ib] = ra, rb
                state.swap(stage_a, rb, stage_b, ra)
            if step % 25 == 0 or step > 380:
                expected = _mapping_cost(
                    {s: tuple(r) for s, r in current.items()},
                    legs, volumes, coords,
                )
                assert state.total_cost() == expected, step

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_swap_sequences_property(self, seed):
        """Any swap/revert sequence leaves the state exactly consistent."""
        config = ReGraphXConfig(num_layers=2)
        legs, volumes, coords, current = self._setup(config)
        state = IncrementalCost(current, legs, volumes, coords)
        rng = np.random.default_rng(seed)
        v_stages = [s for s in current if s.lstrip("B").startswith("V")]
        e_stages = [s for s in current if s.lstrip("B").startswith("E")]
        for _ in range(30):
            pool = v_stages if rng.random() < 0.5 else e_stages
            s1, s2 = rng.choice(len(pool), size=2, replace=False)
            stage_a, stage_b = pool[s1], pool[s2]
            ia = int(rng.integers(len(current[stage_a])))
            ib = int(rng.integers(len(current[stage_b])))
            ra, rb = current[stage_a][ia], current[stage_b][ib]
            current[stage_a][ia], current[stage_b][ib] = rb, ra
            state.swap(stage_a, ra, stage_b, rb)
        expected = _mapping_cost(
            {s: tuple(r) for s, r in current.items()}, legs, volumes, coords
        )
        assert state.total_cost() == expected


class TestRestartsAndDefaults:
    config = ReGraphXConfig()

    def test_restarts_deterministic(self):
        volumes = _volumes(4, True)
        a = anneal_mapping(self.config, volumes, iterations=120, seed=5, restarts=3)
        b = anneal_mapping(self.config, volumes, iterations=120, seed=5, restarts=3)
        assert a.assignment == b.assignment

    def test_parallel_restarts_match_serial(self):
        volumes = _volumes(4, True)
        serial = anneal_mapping(
            self.config, volumes, iterations=100, seed=7, restarts=3, jobs=1
        )
        parallel = anneal_mapping(
            self.config, volumes, iterations=100, seed=7, restarts=3, jobs=3
        )
        assert serial.assignment == parallel.assignment

    def test_restarts_never_worse_than_single(self):
        legs = communication_legs(4)
        volumes = _volumes(4, True)
        coords = _coords(self.config)
        one = anneal_mapping(self.config, volumes, iterations=150, seed=2)
        many = anneal_mapping(
            self.config, volumes, iterations=150, seed=2, restarts=4
        )
        cost_one = _mapping_cost(one.assignment, legs, volumes, coords)
        cost_many = _mapping_cost(many.assignment, legs, volumes, coords)
        assert cost_many <= cost_one + 1e-9

    def test_single_restart_reproduces_historical_stream(self):
        """restarts=1 must consume the seed exactly like the old annealer."""
        a = anneal_mapping(self.config, iterations=80, seed=5)
        b = anneal_mapping(self.config, iterations=80, seed=5, restarts=1)
        assert a.assignment == b.assignment

    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            anneal_mapping(self.config, iterations=1, restarts=0)

    def test_default_iterations_scale_with_mesh(self):
        assert default_sa_iterations(self.config) == 2000
        small = ReGraphXConfig(mesh_width=4, mesh_height=4, num_layers=2)
        big = ReGraphXConfig(mesh_width=12, mesh_height=12)
        assert default_sa_iterations(small) < 2000
        assert default_sa_iterations(big) > 2000
        assert default_sa_iterations(small) >= 200


class TestDegenerateGuards:
    def test_single_stage_pools_inference(self):
        """1-layer inference has one V and one E stage: nothing to swap."""
        config = ReGraphXConfig(num_layers=1)
        sm = anneal_mapping(config, iterations=50, seed=0, training=False)
        assert sm.assignment == contiguous_mapping(config, training=False).assignment

    def test_single_router_stages(self):
        """Stages holding one router each still swap without crashing."""
        config = ReGraphXConfig(mesh_width=4, mesh_height=2, num_layers=4)
        assert config.stage_routers()[0] == 1
        sm = anneal_mapping(config, iterations=60, seed=1)
        routers = [r for s in sm.stages for r in sm.routers(s)]
        assert len(routers) == len(set(routers))

    def test_inference_training_disjoint_stage_sets(self):
        config = ReGraphXConfig(num_layers=2)
        train = anneal_mapping(config, iterations=40, seed=0, training=True)
        infer = anneal_mapping(config, iterations=40, seed=0, training=False)
        assert set(train.stages) == set(stage_names(2, training=True))
        assert set(infer.stages) == set(stage_names(2, training=False))


class TestRandomMappingTraining:
    config = ReGraphXConfig()

    def test_inference_uses_forward_stages_only(self):
        sm = random_mapping(self.config, seed=1, training=False)
        assert set(sm.stages) == set(stage_names(4, training=False))

    def test_inference_doubles_routers_per_stage(self):
        train = random_mapping(self.config, seed=1, training=True)
        infer = random_mapping(self.config, seed=1, training=False)
        assert len(infer.routers("V1")) == 2 * len(train.routers("V1"))
        assert len(infer.routers("E1")) == 2 * len(train.routers("E1"))

    def test_inference_complete_and_disjoint(self):
        sm = random_mapping(self.config, seed=4, training=False)
        routers = [r for s in sm.stages for r in sm.routers(s)]
        assert len(routers) == len(set(routers)) == 192

    def test_inference_respects_tiers(self):
        sm = random_mapping(self.config, seed=2, training=False)
        v_set = set(self.config.v_routers())
        e_set = set(self.config.e_routers())
        for stage in sm.stages:
            target = v_set if stage.lstrip("B").startswith("V") else e_set
            assert set(sm.routers(stage)) <= target
