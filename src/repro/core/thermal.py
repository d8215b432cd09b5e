"""Thermal model for 3D-stacked tiers (the paper's stated future work).

Paper Sec. IV.B: "adding more tiers can lead to thermal issues and
investigating thermal-aware 3D architectures for GNN training is part of
our future work."  This module provides that investigation: a standard 1-D
vertical resistive network for a 3D stack with the heat sink on top.

Heat generated on tier ``i`` flows upward through tiers ``i+1 .. Z-1`` to
the sink, so the *bottom* tier sees the cumulative thermal resistance of
the whole stack — which is why stacking more tiers raises peak temperature
superlinearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.accelerator import ReGraphXReport


@dataclass(frozen=True)
class ThermalSpec:
    """1-D stack thermal parameters.

    Attributes:
        ambient_celsius: environment temperature.
        sink_resistance: heat-sink + spreader resistance (K/W).
        layer_resistance: vertical resistance of one die + bond layer
            (K/W) — dominated by the thermal interface material; typical
            values for 3D stacks are ~0.1-0.4 K/W at chip scale.
        max_junction_celsius: reliability limit used by feasibility checks.
    """

    ambient_celsius: float = 45.0
    sink_resistance: float = 0.12
    layer_resistance: float = 0.25
    max_junction_celsius: float = 105.0

    def __post_init__(self) -> None:
        if self.sink_resistance < 0 or self.layer_resistance < 0:
            raise ValueError("thermal resistances must be non-negative")
        if self.max_junction_celsius <= self.ambient_celsius:
            raise ValueError("junction limit must exceed ambient")


@dataclass(frozen=True)
class ThermalProfile:
    """Steady-state result for one stack configuration."""

    tier_celsius: tuple[float, ...]
    spec: ThermalSpec

    @property
    def peak_celsius(self) -> float:
        return max(self.tier_celsius)

    @property
    def peak_tier(self) -> int:
        return self.tier_celsius.index(self.peak_celsius)

    @property
    def feasible(self) -> bool:
        return self.peak_celsius <= self.spec.max_junction_celsius


class ThermalModel:
    """Steady-state 1-D thermal solver for a tier stack."""

    def __init__(self, spec: ThermalSpec | None = None) -> None:
        self.spec = spec or ThermalSpec()

    def steady_state(self, tier_powers: list[float]) -> ThermalProfile:
        """Temperatures for tiers indexed bottom (0) to top (sink side).

        Tier ``i``'s temperature accumulates the resistance of every layer
        between it and the sink times the heat flowing through that layer
        (all power generated at or below it).
        """
        if not tier_powers:
            raise ValueError("need at least one tier")
        if any(p < 0 for p in tier_powers):
            raise ValueError("tier power must be non-negative")
        spec = self.spec
        total = sum(tier_powers)
        temps: list[float] = []
        sink_temperature = spec.ambient_celsius + spec.sink_resistance * total
        for tier in range(len(tier_powers)):
            t = sink_temperature
            # Layers above this tier each carry the heat of everything below.
            for layer in range(tier, len(tier_powers)):
                heat_through = sum(tier_powers[: layer + 1])
                t += spec.layer_resistance * heat_through
            temps.append(t)
        return ThermalProfile(tier_celsius=tuple(temps), spec=spec)

    def max_feasible_tiers(
        self, power_per_tier: float, max_tiers: int = 16
    ) -> int:
        """Largest uniform-power stack that stays under the junction limit."""
        if power_per_tier < 0:
            raise ValueError("power must be non-negative")
        feasible = 0
        for tiers in range(1, max_tiers + 1):
            profile = self.steady_state([power_per_tier] * tiers)
            if not profile.feasible:
                break
            feasible = tiers
        return feasible


def tier_powers_from_report(report: ReGraphXReport) -> list[float]:
    """Approximate per-tier average power from an evaluation report.

    The chip's static draw is spread evenly across tiers; per-input dynamic
    energy is attributed by tile role — the middle (V) tier carries the
    dense compute energy, the E tiers split the sparse compute, writes, and
    their share of NoC energy.
    """
    config = report.config
    period_energy = report.energy_per_input  # one input traverses per period
    period = report.pipeline.period
    if period <= 0:
        raise ValueError("report has a zero pipeline period")
    dynamic_power = period_energy / period
    static_each = config.static_power_watts / config.tiers
    if period_energy > 0:
        v_share = report.compute_energy_per_input / period_energy
    else:
        v_share = 0.0  # no dynamic energy: nothing to attribute to the V tier
    # Rough role split: V compute stays on the V tier; everything else
    # (E compute, writes, NoC) splits over the E tiers.
    powers = []
    num_e_tiers = len(config.e_tiers)
    for tier in range(config.tiers):
        if tier == config.v_tier:
            powers.append(static_each + dynamic_power * 0.2 * v_share)
        else:
            powers.append(
                static_each + dynamic_power * (1 - 0.2 * v_share) / num_e_tiers
            )
    return powers
