"""Aggregated NoC statistics shared by both performance models.

Besides the per-link flit accounting of both models' results
(:class:`LinkLoads`), this module hosts the shared
latency-distribution helpers (:func:`percentile`,
:func:`summarize_latencies`): NoC finish-time analysis and the serving
engine's per-tenant SLO metrics both report the same p50/p95/p99 summary,
so the math lives once, here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.noc.topology import EJECT, PORTS, Mesh3D

if TYPE_CHECKING:
    from repro.noc.schedule import NoCConfig


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` with linear interpolation.

    Matches numpy's default (``method="linear"``) without requiring the
    caller to materialize an array: rank ``(n - 1) * q / 100`` is
    interpolated between its two neighbouring order statistics.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(values) == 0:
        raise ValueError("cannot take a percentile of no values")
    return _ordered_percentile(sorted(values), q)


def _ordered_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` on an already-sorted population (no re-sort)."""
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo]) * (1.0 - frac) + float(ordered[hi]) * frac


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of one latency population (any time unit)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


def summarize_latencies(values) -> LatencySummary:
    """p50/p95/p99 summary of ``values`` (all-zero for an empty population).

    An empty population is not an error: a tenant that completed nothing
    during a serving window, or a traffic class with no messages, simply
    reports zeros alongside ``count=0``.

    ``values`` is normally a sequence of floats, but a quantile sketch
    (anything exposing a zero-argument ``summary()`` — see
    :mod:`repro.obs.sketch`) is accepted too and answers through its own
    backend, so callers can swap a stored population for a
    constant-memory estimator without changing their reporting code.
    """
    summarize = getattr(values, "summary", None)
    if summarize is not None:
        return summarize()
    if len(values) == 0:
        return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
    ordered = sorted(float(v) for v in values)
    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=_ordered_percentile(ordered, 50),
        p95=_ordered_percentile(ordered, 95),
        p99=_ordered_percentile(ordered, 99),
        max=ordered[-1],
    )


class LinkLoads:
    """Per-link flit accounting, shared by both NoC models' results.

    A result carries ``link_loads[router * PORTS + port]``, the flits that
    crossed each link (:mod:`repro.noc.topology`), with its mesh, its NoC
    configuration and its makespan; every figure here is read off those.
    Mesh ports 0-3 are planar (x, y), 4-5 vertical (z, TSV), then the two
    local ports.
    """

    makespan_cycles: int
    link_loads: tuple[int, ...]
    topo: Mesh3D
    config: NoCConfig

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles * self.config.cycle_time

    def _port_class_hops(self) -> tuple[int, int, int]:
        """Flit-hops on (planar, vertical, local) links."""
        per_port = [sum(self.link_loads[port::PORTS]) for port in range(PORTS)]
        return sum(per_port[:4]), sum(per_port[4:EJECT]), sum(per_port[EJECT:])

    @property
    def total_flit_hops(self) -> int:
        return sum(self.link_loads)

    @property
    def planar_flit_hops(self) -> int:
        return self._port_class_hops()[0]

    @property
    def vertical_flit_hops(self) -> int:
        return self._port_class_hops()[1]

    @property
    def local_flit_hops(self) -> int:
        """Flits crossing injection/ejection ports."""
        return self._port_class_hops()[2]

    @property
    def max_link_load(self) -> int:
        """Flits on the most loaded link — the serialization bottleneck."""
        return max(self.link_loads, default=0)

    @property
    def utilization(self) -> float:
        """Mean per-link occupancy over the makespan.

        The link population is the one flits can cross: the directed mesh
        links plus, with ``config.model_local_ports``, one injection and
        one ejection port per router.
        """
        if self.makespan_cycles <= 0:
            return 0.0
        w, h, t = self.topo.width, self.topo.height, self.topo.tiers
        num_links = 2 * ((w - 1) * h * t + w * (h - 1) * t + w * h * (t - 1))
        if self.config.model_local_ports:
            num_links += 2 * self.topo.num_routers
        return self.total_flit_hops / (num_links * self.makespan_cycles)

    def energy_joules(self) -> float:
        """Network energy: every flit-hop pays router + link energy."""
        cfg = self.config
        planar, vertical, local = self._port_class_hops()
        return (
            (planar + vertical + local) * cfg.router_energy_per_flit
            + planar * cfg.planar_link_energy_per_flit
            + vertical * cfg.vertical_link_energy_per_flit
            + local * cfg.local_port_energy_per_flit
        )
