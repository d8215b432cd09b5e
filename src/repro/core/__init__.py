"""ReGraphX core: the paper's heterogeneous 3D ReRAM architecture.

Composition:

* :mod:`repro.core.config` — Table I architecture parameters.
* :mod:`repro.core.mapping` — SA-based layer-to-router placement.
* :mod:`repro.core.traffic` — extraction of the many-to-one-to-many and
  multicast message sets of pipelined GNN training.
* :mod:`repro.core.pipeline` — the 4L-stage training pipeline schedule.
* :mod:`repro.core.heterogeneity` — zero-storage / E-PE-demand analysis.
* :mod:`repro.core.accelerator` — the ReGraphX façade tying it together.
* :mod:`repro.core.evaluation` — full-system comparison against the GPU.
"""

from repro.core.accelerator import ReGraphX, Workload
from repro.core.config import ReGraphXConfig
from repro.core.evaluation import FullSystemComparison, compare_with_gpu
from repro.core.heterogeneity import epe_demand_for_beta, zero_storage_study
from repro.core.mapping import (
    IncrementalCost,
    StageMap,
    anneal_mapping,
    contiguous_mapping,
    default_sa_iterations,
    random_mapping,
)
from repro.core.pipeline import PipelineModel, StageCost
from repro.core.thermal import (
    ThermalModel,
    ThermalProfile,
    ThermalSpec,
    tier_powers_from_report,
)
from repro.core.traffic import GNNTrafficModel

__all__ = [
    "ReGraphXConfig",
    "StageMap",
    "contiguous_mapping",
    "anneal_mapping",
    "random_mapping",
    "default_sa_iterations",
    "IncrementalCost",
    "GNNTrafficModel",
    "PipelineModel",
    "StageCost",
    "ReGraphX",
    "Workload",
    "zero_storage_study",
    "epe_demand_for_beta",
    "compare_with_gpu",
    "FullSystemComparison",
    "ThermalModel",
    "ThermalSpec",
    "ThermalProfile",
    "tier_powers_from_report",
]
