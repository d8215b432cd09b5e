"""Golden digests of the generated graphs and their partitions.

The benchmark's inputs (the Table II stand-ins at the scales ``repro
evaluate`` and the serving calibration use) and one graph that coarsens
through ten matching levels are pinned byte for byte.  Any change to the
generator, to ``CSRGraph.from_edges`` or to the partitioner that moves a
single edge or part id fails here; a deliberate change must re-pin these
digests and bump the result-store schema versions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import get_dataset_spec, load_dataset
from repro.graph.generators import powerlaw_community_graph
from repro.graph.partition import partition_graph


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array, dtype=np.int64)
    return hashlib.blake2b(array.tobytes(), digest_size=16).hexdigest()


#: (dataset, scale) -> (indptr, indices, partition assignment) digests, at
#: seed 0 and the part count ``ReGraphX.build_workload`` uses.
DATASET_GOLDEN = {
    ("ppi", 0.1): (
        "0e2cbef6bd38297243cc04403d2fed11",
        "77721e855b3ae0b6496d67f9b27473bd",
        "5265ce91d63d4cdad2cd3c57c08fe6a3",
    ),
    ("reddit", 0.02): (
        "37910e2f91275e6ee1201cb2de0a3f1d",
        "a1e4dc6600ee106592974123495a4ad5",
        "142b37a1b1cec6873b270eb487c0de09",
    ),
    ("amazon2m", 0.004): (
        "79c25440bc28e4f11720cb9c9420c1bc",
        "b3735f577a64d58b73a569ab242fb0e0",
        "a1c77e53764e944f8e0913a6754cc89e",
    ),
    ("ppi", 0.05): (
        "eee82f2b44828404631426747f22c50c",
        "ff953c1eb5c00cf8d5fbaf19b04d9224",
        "795139a790c004030fb59c38a001d472",
    ),
}

#: powerlaw_community_graph(3000, 9000, num_communities=50, seed=0) cut into
#: 16 parts: the one pinned case whose partition really coarsens.
COARSENING_GOLDEN = (
    "d8173058f20e2fcf2abf579dcd0d7c0d",
    "a5565bf2fe3bb0da25bd968f934914bd",
    "54f3232c1bd4a20a353b83c2cc3af73f",
)


@pytest.mark.parametrize("name,scale", list(DATASET_GOLDEN))
def test_dataset_and_partition_digests(name, scale):
    graph = load_dataset(name, scale=scale, seed=0, with_features=False)
    _, _, num_parts = get_dataset_spec(name).scaled(scale)
    assignment = partition_graph(graph, num_parts, seed=0).assignment
    got = (digest(graph.indptr), digest(graph.indices), digest(assignment))
    assert got == DATASET_GOLDEN[(name, scale)]


def test_coarsening_partition_digest():
    graph = powerlaw_community_graph(3000, 9000, num_communities=50, seed=0)
    assignment = partition_graph(graph, 16, seed=0).assignment
    got = (digest(graph.indptr), digest(graph.indices), digest(assignment))
    assert got == COARSENING_GOLDEN
