"""ReGraphX reproduction: a 3D heterogeneous ReRAM GNN-training accelerator.

Full-stack Python reproduction of *ReGraphX: NoC-enabled 3D Heterogeneous
ReRAM Architecture for Training Graph Neural Networks* (DATE 2021).

Subpackages:

* :mod:`repro.graph` — graphs, synthetic datasets, partitioning,
  Cluster-GCN batching, serialization
* :mod:`repro.gnn` — numpy GCN/GraphSAGE training substrate
* :mod:`repro.reram` — crossbar/IMA/tile models, timing, energy, sparse
  block mapping, device variation
* :mod:`repro.noc` — 3D mesh, routing, multicast, schedulers, flit-level
  simulators
* :mod:`repro.core` — the architecture: config, mapping, traffic,
  pipeline, accelerator, evaluation, thermal
* :mod:`repro.campaign` — declarative sweeps (design-space and serving),
  parallel execution, the content-addressed result store, Pareto fronts
* :mod:`repro.serve` — inference serving: arrivals, admission control,
  batching, autoscaling, capacity planning
* :mod:`repro.experiments` — one driver per reported table/figure
* :mod:`repro.baselines` — V100 GPU, planar mesh, homogeneous ReRAM
* :mod:`repro.utils` — RNG, hashing, unit formatting

Typical entry point::

    from repro.core import ReGraphX, compare_with_gpu
    accelerator = ReGraphX()
    workload = accelerator.build_workload("reddit", scale=0.02)
    report = accelerator.evaluate(workload)
    print(compare_with_gpu(report).speedup)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
