"""ReGraphX architecture configuration (paper Table I + Sec. IV).

The reference instance is an 8x8x3 3D mesh: 64 routers per tier, 4 tiles
per router.  The middle tier (z = 1) carries the V-PEs (64 routers, 256
tiles of 128x128 crossbars); the top and bottom tiers carry the E-PEs
(128 routers, 512 tiles of 8x8 crossbars) — the sandwich of Fig. 2 that
gives every V-PE one-hop vertical reach to E-PEs in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.schedule import NoCConfig
from repro.noc.topology import Mesh3D
from repro.reram.tile import TileSpec, e_tile_spec, v_tile_spec
from repro.reram.timing import CLOCK_HZ


@dataclass(frozen=True)
class ReGraphXConfig:
    """Complete parameterization of one ReGraphX instance.

    ``v_tile`` and ``e_tile`` are the only description of the two tile
    kinds: tiling, timing and energy all read their geometry from them.
    ``static_power_watts`` is the chip-level static draw (eDRAM buffers,
    clock tree, peripheral and router leakage across ~770 tiles + 192
    routers).  ISAAC-class chips sit at tens of watts; this term dominates
    epoch energy at 10 MHz array clocks and is charged for the full epoch.
    """

    mesh_width: int = 8
    mesh_height: int = 8
    tiers: int = 3
    v_tier: int = 1
    tiles_per_router: int = 4
    v_tile: TileSpec = field(default_factory=v_tile_spec)
    e_tile: TileSpec = field(default_factory=e_tile_spec)
    noc: NoCConfig = field(default_factory=NoCConfig)
    num_layers: int = 4  # GNN neural layers (paper Sec. V.A: four per dataset)
    static_power_watts: float = 75.0

    def __post_init__(self) -> None:
        if not 0 <= self.v_tier < self.tiers:
            raise ValueError(f"v_tier {self.v_tier} outside [0, {self.tiers})")
        if self.tiers < 2:
            raise ValueError("ReGraphX needs at least one E tier besides the V tier")
        if self.tiles_per_router < 1:
            raise ValueError("need at least one tile per router")
        if self.v_tile.kind != "v" or self.e_tile.kind != "e":
            raise ValueError("tile specs assigned to the wrong roles")
        if self.num_layers < 1:
            raise ValueError("GNN must have at least one layer")
        if self.static_power_watts < 0:
            raise ValueError("static_power_watts must be non-negative")
        # Every pipeline stage set must get at least one router.
        v_routers, e_routers = self.stage_routers()
        if v_routers < 1:
            raise ValueError(
                f"{len(self.v_routers())} V routers cannot serve "
                f"{2 * self.num_layers} V pipeline stages"
            )
        if e_routers < 1:
            raise ValueError(
                f"{len(self.e_routers())} E routers cannot serve "
                f"{2 * self.num_layers} E pipeline stages"
            )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Mesh3D:
        return Mesh3D(self.mesh_width, self.mesh_height, self.tiers)

    @property
    def e_tiers(self) -> tuple[int, ...]:
        return tuple(z for z in range(self.tiers) if z != self.v_tier)

    def v_routers(self) -> list[int]:
        """Router ids of the V tier."""
        return self.topology.tier_routers(self.v_tier)

    def e_routers(self) -> list[int]:
        """Router ids of all E tiers."""
        routers: list[int] = []
        for z in self.e_tiers:
            routers.extend(self.topology.tier_routers(z))
        return routers

    # ------------------------------------------------------------------
    # Resource counts
    # ------------------------------------------------------------------
    @property
    def num_v_tiles(self) -> int:
        return len(self.v_routers()) * self.tiles_per_router

    @property
    def num_e_tiles(self) -> int:
        return len(self.e_routers()) * self.tiles_per_router

    @property
    def num_v_imas(self) -> int:
        return self.num_v_tiles * self.v_tile.num_imas

    @property
    def num_e_crossbars(self) -> int:
        """Independent adjacency-block slots across all E tiles."""
        return self.num_e_tiles * self.e_tile.adjacency_blocks_per_tile

    # ------------------------------------------------------------------
    # Pipeline geometry
    # ------------------------------------------------------------------
    @property
    def num_pipeline_stages(self) -> int:
        """V+E sublayers, forward and backward (Fig. 4): 4 * layers."""
        return 4 * self.num_layers

    def stage_routers(self, training: bool = True) -> tuple[int, int]:
        """(V routers, E routers) per pipeline stage.

        Training runs 2L V stages on the V tier and 2L E stages on the E
        tiers (forward and backward); inference runs L of each, so every
        stage gets twice the routers.
        """
        stage_sets = (2 if training else 1) * self.num_layers
        return (
            len(self.v_routers()) // stage_sets,
            len(self.e_routers()) // stage_sets,
        )

    def stage_budgets(self, training: bool = True) -> tuple[int, int]:
        """(V IMAs, E crossbars) per pipeline stage for the mode."""
        v_routers, e_routers = self.stage_routers(training)
        return (
            v_routers * self.tiles_per_router * self.v_tile.num_imas,
            e_routers * self.tiles_per_router * self.e_tile.adjacency_blocks_per_tile,
        )

    def summary(self) -> dict[str, object]:
        """Table I echo: the parameters a report would print."""
        return {
            "mesh": f"{self.mesh_width}x{self.mesh_height}x{self.tiers}",
            "v_tier": self.v_tier,
            "v_routers": len(self.v_routers()),
            "e_routers": len(self.e_routers()),
            "tiles_per_router": self.tiles_per_router,
            "v_tiles": self.num_v_tiles,
            "e_tiles": self.num_e_tiles,
            "v_crossbar": f"{self.v_tile.crossbar_size}x{self.v_tile.crossbar_size}",
            "e_crossbar": f"{self.e_tile.crossbar_size}x{self.e_tile.crossbar_size}",
            "imas_per_tile": self.v_tile.num_imas,
            "v_adc_bits": self.v_tile.ima.adc.bits,
            "e_adc_bits": self.e_tile.ima.adc.bits,
            "cell_bits": self.v_tile.ima.cell.bits,
            "clock_hz": CLOCK_HZ,
            "pipeline_stages": self.num_pipeline_stages,
        }
