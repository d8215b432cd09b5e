"""Golden digests of the paper model's end-to-end numbers.

Each digest covers one ``ReGraphX.evaluate`` report: per-stage compute and
communication seconds, the three per-input energies (compute, adjacency
writes, NoC), epoch seconds and energy, and the ``compare_with_gpu``
ratios.  The workloads are ppi@0.05, reddit@0.01 and amazon2m@0.002 (seed
0, contiguous stage map) on the paper's 8x8x3 chip, multicast and
unicast, training and inference, plus a 2-tier point and a 12x12x4 point
materialized by ``Scenario.to_config`` (so the static power is rescaled
with the tile count).  Table I's rendered text is pinned too.  A change to
the ReRAM timing or energy model, the stage budgets or the static-power
scaling that moves one float fails here; a deliberate change must re-pin
these digests and bump the result-store schema versions.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.campaign.spec import Scenario
from repro.core.accelerator import ReGraphX
from repro.core.config import ReGraphXConfig
from repro.core.evaluation import compare_with_gpu
from repro.core.mapping import contiguous_mapping
from repro.experiments.tables import table1_parameters

WORKLOADS = {"ppi": 0.05, "reddit": 0.01, "amazon2m": 0.002}

CONFIGS = {
    "8x8x3": ReGraphXConfig(),
    "8x8x2": Scenario(tiers=2).to_config(),
    "12x12x4": Scenario(tiers=4, mesh_width=12).to_config(),
}

#: (chip, dataset, multicast, training) -> blake2b digest of the report.
REPORT_GOLDEN = {
    ("8x8x3", "ppi", True, True): "e9bc455cdf19dd9cb1759f4274d9df23",
    ("8x8x3", "ppi", True, False): "d79432f92a52ed94f36c616449e768b9",
    ("8x8x3", "ppi", False, True): "e2310a3b3cee5f20b9af492d315b3f70",
    ("8x8x3", "ppi", False, False): "6f81880d4ea86bca72d269937384d44a",
    ("8x8x3", "reddit", True, True): "3dcab69ede8b876c83b73d1181b91204",
    ("8x8x3", "reddit", True, False): "08993fc60fed99fc4a4af6f45e278eb7",
    ("8x8x3", "reddit", False, True): "df6787fa209631cfca54c2ba4563c7f1",
    ("8x8x3", "reddit", False, False): "2df39d4551295196f4bb5a92cb63a818",
    ("8x8x3", "amazon2m", True, True): "aadc4a7d7f7921fc5670c000cbc90052",
    ("8x8x3", "amazon2m", True, False): "bed6134d937ec7157b0e716d3f6c331d",
    ("8x8x3", "amazon2m", False, True): "cb9a3e5ceb086699a61f25621740107c",
    ("8x8x3", "amazon2m", False, False): "3a48e4c40413b917714220881b59c04d",
    ("8x8x2", "ppi", True, True): "c4371608070cfc02482947fb162d2519",
    ("8x8x2", "ppi", True, False): "7fe0e4d20b1fd83190ccaf169197b5be",
    ("8x8x2", "ppi", False, True): "241204bb554495aa130e50f0cbd49338",
    ("8x8x2", "ppi", False, False): "e1d22822d30cb4425791d2a202d341d0",
    ("8x8x2", "reddit", True, True): "d1594429e6856ee84fa21a3060ce0042",
    ("8x8x2", "reddit", True, False): "5b754f4df71550a800daedf098b38482",
    ("8x8x2", "reddit", False, True): "1347fcac38a7a68aafca995d859fa8b4",
    ("8x8x2", "reddit", False, False): "2c89058575016528925d8978f67b583b",
    ("8x8x2", "amazon2m", True, True): "fae97fca698b00587e919b24378e4263",
    ("8x8x2", "amazon2m", True, False): "eade530a5a8a32bf4d0ad459ae144017",
    ("8x8x2", "amazon2m", False, True): "553cc38468bd54e91330a1121dbc35c5",
    ("8x8x2", "amazon2m", False, False): "4f9e9a9e5afebd5f97d5feedddd6bffe",
    ("12x12x4", "ppi", True, True): "5f26dd5e30fb5e4ff1d562df249232a7",
    ("12x12x4", "ppi", True, False): "b3d54da20458bb38c83fd5938898de1d",
    ("12x12x4", "ppi", False, True): "f3768782e66d565c92770146f4dd4909",
    ("12x12x4", "ppi", False, False): "397b45e4c6e963332aa0672efe31cbed",
    ("12x12x4", "reddit", True, True): "17e0dabfaa89632bdd3f4eb89f757082",
    ("12x12x4", "reddit", True, False): "e937ca50cea240a48c34f2cf9d54d302",
    ("12x12x4", "reddit", False, True): "0de7de39b389dd2e4b7891743cdcb599",
    ("12x12x4", "reddit", False, False): "ed698814a519d24439921979c475d112",
    ("12x12x4", "amazon2m", True, True): "12fa5e221790d3902bb94ba8da52be24",
    ("12x12x4", "amazon2m", True, False): "229f7cb2b385ffe91ca7b250fe0b72e5",
    ("12x12x4", "amazon2m", False, True): "f4a33c85ee4f91a87e45e4c3f5d347b2",
    ("12x12x4", "amazon2m", False, False): "758c0beb6dbce8d5c27b7a599804ccd4",
}

TABLE1_GOLDEN = "e2412f1c793629e1b6ac792ba7c001c4"


def _digest(payload: object) -> str:
    return hashlib.blake2b(repr(payload).encode(), digest_size=16).hexdigest()


@lru_cache(maxsize=None)
def _workload(dataset: str):
    return ReGraphX().build_workload(dataset, scale=WORKLOADS[dataset], seed=0)


def report_digest(chip: str, dataset: str, multicast: bool, training: bool) -> str:
    config = CONFIGS[chip]
    report = ReGraphX(config).evaluate(
        _workload(dataset),
        multicast=multicast,
        stage_map=contiguous_mapping(config, training),
        training=training,
    )
    gpu = compare_with_gpu(report)
    return _digest(
        (
            sorted(report.compute_seconds.items()),
            sorted(report.communication_seconds.items()),
            report.compute_energy_per_input,
            report.write_energy_per_input,
            report.noc_energy_per_input,
            report.epoch_seconds,
            report.epoch_energy,
            gpu.speedup,
            gpu.energy_ratio,
            gpu.edp_improvement,
        )
    )


@pytest.mark.parametrize("chip,dataset,multicast,training", list(REPORT_GOLDEN))
def test_report_digest(chip, dataset, multicast, training):
    digest = report_digest(chip, dataset, multicast, training)
    assert digest == REPORT_GOLDEN[(chip, dataset, multicast, training)]


def test_table1_digest():
    assert _digest(table1_parameters().render()) == TABLE1_GOLDEN
