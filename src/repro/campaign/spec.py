"""Declarative scenario and campaign specifications.

A :class:`Scenario` names one point in the evaluation space: which dataset
at which scale and seed, on which architecture variant (tier count, mesh
footprint, NoC clock) and with which evaluation flags (multicast on/off,
SA mapping on/off).  A :class:`CampaignSpec` is a *sweep*: a base scenario
plus named axes whose cross-product enumerates scenarios declaratively —
no hand-rolled nested loops.

Architecture knobs default to ``None`` meaning "inherit from the base
configuration", so a scenario composes with an arbitrary
:class:`~repro.core.config.ReGraphXConfig` supplied at execution time.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.core.config import ReGraphXConfig
from repro.utils.units import MHZ

#: Bump when the evaluation model changes in a way that invalidates cached
#: results (the version participates in every scenario's content hash).
#: v2: SA mapping defaults scale iterations with mesh size and scenarios
#: carry an ``sa_restarts`` knob, changing every ``use_sa=True`` outcome.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Scenario:
    """One evaluation point: workload knobs + architecture overrides + flags.

    Attributes:
        dataset: Table II dataset name (``ppi``/``reddit``/``amazon2m``).
        scale: synthetic graph scale; ``None`` picks the laptop-friendly
            default for the dataset (``DEFAULT_SCALES``).
        seed: RNG seed for generation/partitioning/batching/SA.
        tiers: stacked tier count override (``None`` = inherit).  When set,
            the V tier is re-centered at ``tiers // 2`` and the chip static
            power is rescaled with the physical tile count (see
            :meth:`to_config`).
        mesh_width / mesh_height: planar mesh overrides; a lone
            ``mesh_width`` implies a square mesh.
        noc_clock_hz: NoC router clock override.
        multicast: tree-multicast (paper default) vs unicast NoC traffic.
        use_sa: SA-optimized stage placement vs contiguous mapping.
        sa_restarts: independent annealing chains when ``use_sa`` (best
            final cost wins); ignored for contiguous mapping.
        batch_size: Cluster-GCN beta override (``None`` = paper default).
        label: display name; auto-derived from the knobs when empty.
    """

    dataset: str = "ppi"
    scale: float | None = None
    seed: int = 0
    tiers: int | None = None
    mesh_width: int | None = None
    mesh_height: int | None = None
    noc_clock_hz: float | None = None
    multicast: bool = True
    use_sa: bool = False
    sa_restarts: int = 1
    batch_size: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.scale is not None and self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.tiers is not None and self.tiers < 2:
            raise ValueError("a ReGraphX stack needs at least 2 tiers")
        if self.noc_clock_hz is not None and self.noc_clock_hz <= 0:
            raise ValueError("NoC clock must be positive")
        if self.sa_restarts < 1:
            raise ValueError("sa_restarts must be at least 1")

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def effective_scale(self) -> float:
        """Explicit scale, or the dataset's laptop-friendly default."""
        if self.scale is not None:
            return self.scale
        from repro.experiments.common import DEFAULT_SCALES

        try:
            return DEFAULT_SCALES[self.dataset]
        except KeyError:
            raise ValueError(
                f"no default scale for dataset {self.dataset!r}; set scale explicitly"
            ) from None

    @property
    def display_label(self) -> str:
        return self.label or self.auto_label()

    def auto_label(self) -> str:
        """Readable name derived from the non-default knobs."""
        parts = [self.dataset]
        if self.tiers is not None:
            parts.append(f"{self.tiers}t")
        if self.mesh_width is not None:
            height = self.mesh_height or self.mesh_width
            parts.append(f"{self.mesh_width}x{height}")
        if self.noc_clock_hz is not None:
            parts.append(f"{self.noc_clock_hz / MHZ:g}MHz")
        if self.batch_size is not None:
            parts.append(f"b{self.batch_size}")
        parts.append("mc" if self.multicast else "uni")
        if self.use_sa:
            parts.append(
                "sa" if self.sa_restarts == 1 else f"sa{self.sa_restarts}"
            )
        parts.append(f"s{self.seed}")
        return "-".join(parts)

    # ------------------------------------------------------------------
    # Architecture materialization
    # ------------------------------------------------------------------
    def to_config(self, base: ReGraphXConfig | None = None) -> ReGraphXConfig:
        """Materialize the architecture this scenario evaluates.

        Overrides are applied to ``base`` (paper design point by default).
        Whenever the topology changes, the chip static power is rescaled
        with the physical tile count.
        """
        base = base or ReGraphXConfig()
        config = base
        if self.tiers is not None:
            config = replace(config, tiers=self.tiers, v_tier=self.tiers // 2)
        if self.mesh_width is not None or self.mesh_height is not None:
            width = self.mesh_width or base.mesh_width
            height = self.mesh_height or width
            config = replace(config, mesh_width=width, mesh_height=height)
        if self.noc_clock_hz is not None:
            config = replace(
                config, noc=replace(config.noc, clock_hz=self.noc_clock_hz)
            )
        base_tiles = base.num_v_tiles + base.num_e_tiles
        tiles = config.num_v_tiles + config.num_e_tiles
        if tiles != base_tiles:
            config = replace(
                config,
                static_power_watts=base.static_power_watts * tiles / base_tiles,
            )
        return config

    def describe(self) -> dict[str, Any]:
        """Plain-dict form (what result records and exports carry)."""
        return {
            "dataset": self.dataset,
            "scale": self.effective_scale,
            "seed": self.seed,
            "tiers": self.tiers,
            "mesh_width": self.mesh_width,
            "mesh_height": self.mesh_height,
            "noc_clock_hz": self.noc_clock_hz,
            "multicast": self.multicast,
            "use_sa": self.use_sa,
            "sa_restarts": self.sa_restarts,
            "batch_size": self.batch_size,
            "label": self.display_label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(data).items() if k in names})


def axis_fields(scenario_type: type) -> tuple[str, ...]:
    """The fields of a scenario dataclass a campaign may sweep over.

    Any frozen dataclass with a ``label`` field and an ``auto_label()``
    method can act as a campaign base (the architecture
    :class:`Scenario` here, :class:`repro.serve.scenario.ServingScenario`
    for the serving engine); every field except the display label is a
    legal sweep axis.
    """
    return tuple(f.name for f in fields(scenario_type) if f.name != "label")


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: base scenario x cross-product of axes.

    ``axes`` maps scenario field names to the values to sweep; scenarios
    are enumerated in row-major order (last axis fastest), each labelled
    with the varying knobs.  The spec itself never evaluates anything —
    hand it to :func:`repro.campaign.executor.run_campaign` (architecture
    scenarios) or :func:`repro.serve.sweep.run_serving_campaign` (serving
    scenarios).  Axes are validated against the *base scenario's* fields,
    so the same spec machinery sweeps any scenario dataclass.
    """

    name: str
    base: Any = field(default_factory=Scenario)
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base_config: ReGraphXConfig | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a name")
        legal = axis_fields(type(self.base))
        normalized: list[tuple[str, tuple[Any, ...]]] = []
        axes = self.axes
        if isinstance(axes, Mapping):
            axes = tuple(axes.items())
        for entry in axes:
            name, values = entry
            if name not in legal:
                raise ValueError(
                    f"unknown sweep axis {name!r}; choose from {legal}"
                )
            if isinstance(values, (str, bytes)) or not isinstance(
                values, Sequence
            ):
                raise ValueError(f"axis {name!r} needs a sequence of values")
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            normalized.append((name, tuple(values)))
        seen = [n for n, _ in normalized]
        if len(seen) != len(set(seen)):
            raise ValueError(f"duplicate sweep axes in {seen}")
        object.__setattr__(self, "axes", tuple(normalized))

    def __len__(self) -> int:
        total = 1
        for _, values in self.axes:
            total *= len(values)
        return total

    def scenarios(self) -> list[Any]:
        """Enumerate the cross-product, one labelled scenario per cell."""
        names = [name for name, _ in self.axes]
        grids = [values for _, values in self.axes]
        out: list[Any] = []
        for assignment in itertools.product(*grids):
            overrides = dict(zip(names, assignment))
            scenario = replace(self.base, **overrides, label="")
            out.append(replace(scenario, label=scenario.auto_label()))
        return out

    def summary(self) -> str:
        axes = ", ".join(
            f"{name}[{len(values)}]" for name, values in self.axes
        )
        return f"{self.name}: {len(self)} scenarios ({axes or 'single point'})"
