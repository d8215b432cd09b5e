"""Seeded fault injection: crash/recover, slowdowns, zone outages.

Every fleet model built before this module assumed instances never fail.
Real serving fleets lose replicas mid-batch, slow down when a noisy
neighbour steals the memory bus, and occasionally lose a whole rack at
once — and the interesting availability questions (what do retries buy,
what does N+1 capacity cost) only exist once those events do.  Two
pieces turn failures into first-class discrete events:

* :class:`FaultSpec` — the declarative fault model, parseable from the
  CLI string form (``"mtbf=0.4,mttr=0.1,zones=2"``).  Three independent
  processes, each disabled when its rate is zero:

  - **Crashes** — per-instance exponential time-between-failures
    (``mtbf``); a crashed instance is torn down (killing any in-flight
    batch) and a repaired replacement is provisioned ``mttr`` seconds
    later, paying the usual warm-up before it serves.
  - **Slowdowns** — transient per-slice degradation (``slow_mtbf``):
    for ``slow_duration`` seconds every batch dispatched by the slice
    runs ``slow_factor`` times slower, modelling interference rather
    than loss.
  - **Zone outages** — correlated failure (``zone_mtbf`` over
    ``zones`` zones): instances map to zones by ``local id % zones``,
    and an outage crashes every provisioned instance of one zone across
    all slices simultaneously, recovering together after ``zone_mttr``.

  The named preset ``"default"`` is the standard fault zoo the fig. 12
  availability experiment (and the chaos CI smoke) runs against.

* :class:`FaultInjector` — the seeded runtime: it owns one
  ``random.Random`` and answers "when is the next event and who is the
  victim".  The serving engine drives it through its own event heap, so
  a faulted simulation remains a deterministic function of
  ``(scenario, seed)`` — the property every differential test and the
  fig. 12 acceptance criterion lean on.

The injector never mutates the fleet itself; it only *decides*.  The
engine applies the decision through
:meth:`~repro.serve.fleet.TypedReplicaPool.crash`, which is where the
billing invariants (partial busy-seconds on teardown, non-negative
cached aggregates) are enforced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

#: Sentinel accepted by :meth:`FaultSpec.parse` for the standard fault
#: zoo (what ``repro serve --faults default`` and fig. 12 use).
DEFAULT_FAULTS = "default"

#: The standard fault zoo: roughly one crash per instance every 0.4
#: simulated seconds with a 0.1 s repair, occasional 2x slowdowns, and
#: a rare two-zone correlated outage.  Aggressive on purpose — the
#: reliability experiments need failures to *matter* inside a short,
#: laptop-friendly horizon.
DEFAULT_FAULT_SPEC_TEXT = (
    "mtbf=0.4,mttr=0.1,slow_mtbf=1.0,slow_factor=2.0,slow_duration=0.1,"
    "zones=2,zone_mtbf=4.0,zone_mttr=0.15"
)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model for one serving run.

    Attributes:
        mtbf: per-instance mean time between crashes in simulated
            seconds (``0`` disables the crash process).
        mttr: mean time to repair — the delay before a crashed
            instance's replacement is provisioned (it then pays the
            normal warm-up before serving).
        slow_mtbf: per-slice mean time between transient slowdowns
            (``0`` disables slowdowns).
        slow_factor: service-time multiplier while a slowdown is active.
        slow_duration: how long each slowdown lasts.
        zones: failure-correlation domains; instances map to zones by
            ``local id % zones``.
        zone_mtbf: fleet-level mean time between zone outages (``0``
            disables them; requires ``zones >= 2`` to be meaningful but
            is accepted with one zone — it then crashes everything).
        zone_mttr: outage duration before the zone's instances are
            repaired together.
    """

    mtbf: float = 0.0
    mttr: float = 0.05
    slow_mtbf: float = 0.0
    slow_factor: float = 2.0
    slow_duration: float = 0.05
    zones: int = 1
    zone_mtbf: float = 0.0
    zone_mttr: float = 0.1

    def __post_init__(self) -> None:
        if self.mtbf < 0 or self.slow_mtbf < 0 or self.zone_mtbf < 0:
            raise ValueError("fault rates (mtbf fields) must be non-negative")
        if self.mttr <= 0 or self.zone_mttr <= 0:
            raise ValueError("repair times (mttr fields) must be positive")
        if self.slow_factor <= 1.0:
            raise ValueError(
                f"slow_factor must exceed 1, got {self.slow_factor}"
            )
        if self.slow_duration <= 0:
            raise ValueError("slow_duration must be positive")
        if self.zones < 1:
            raise ValueError(f"zones must be >= 1, got {self.zones}")

    @property
    def enabled(self) -> bool:
        """Whether any fault process is actually armed."""
        return self.mtbf > 0 or self.slow_mtbf > 0 or self.zone_mtbf > 0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``"mtbf=0.4,mttr=0.1,..."``.

        The bare word ``"default"`` resolves to the standard fault zoo;
        unknown keys are rejected so typos fail fast.
        """
        if not text or not text.strip():
            raise ValueError("empty fault spec")
        if text.strip() == DEFAULT_FAULTS:
            text = DEFAULT_FAULT_SPEC_TEXT
        known = {f.name: f.type for f in fields(cls)}
        kwargs: dict[str, float | int] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value_text = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"bad fault field {part!r}; expected 'key=value'"
                )
            if key not in known:
                raise ValueError(
                    f"unknown fault field {key!r}; "
                    f"choose from {sorted(known)}"
                )
            try:
                kwargs[key] = (
                    int(value_text) if key == "zones" else float(value_text)
                )
            except ValueError:
                raise ValueError(
                    f"bad value {value_text!r} for fault field {key!r}"
                ) from None
        return cls(**kwargs)

    def render(self) -> str:
        """Canonical string form (only non-default fields, stable order)."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value:g}")
        return ",".join(parts)


class FaultInjector:
    """The seeded decision-maker behind one faulted run.

    One injector serves one engine run.  It owns a single
    ``random.Random(seed)`` consumed in a deterministic order (every
    draw happens inside an engine event handler, and the engine's event
    order is itself deterministic), so traces, reports, and the fig. 12
    frontier repeat exactly under a fixed seed.

    Args:
        spec: the declarative fault model.
        seed: scenario seed; the injector derives its stream from it.
        slices: number of fleet slices (one crash/slowdown process per
            slice).
    """

    def __init__(self, spec: FaultSpec, seed: int, slices: int) -> None:
        if slices < 1:
            raise ValueError("need at least one fleet slice")
        self.spec = spec
        # A fixed odd multiplier decorrelates the fault stream from the
        # arrival/routing streams that consume the raw scenario seed.
        self._rng = random.Random(seed * 1_000_003 + 0x5EED)
        self.slices = slices

    # ------------------------------------------------------------------
    # Scheduling draws (exponential inter-event gaps)
    # ------------------------------------------------------------------
    def next_crash_gap(self, provisioned: int) -> float:
        """Seconds until the next crash in a slice of ``provisioned``
        instances (per-instance MTBF => slice rate scales with size).

        An empty slice still returns a finite re-check gap so the
        process resumes once recoveries repopulate the slice.
        """
        rate = max(provisioned, 1) / self.spec.mtbf
        return self._rng.expovariate(rate)

    def next_slowdown_gap(self) -> float:
        """Seconds until a slice's next transient slowdown."""
        return self._rng.expovariate(1.0 / self.spec.slow_mtbf)

    def next_zone_gap(self) -> float:
        """Seconds until the next correlated zone outage."""
        return self._rng.expovariate(1.0 / self.spec.zone_mtbf)

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------
    def pick_victim(self, instance_ids: tuple[int, ...]) -> int | None:
        """Uniformly choose the crashing instance (``None`` if the slice
        is currently empty — the crash event then fizzles)."""
        if not instance_ids:
            return None
        return instance_ids[self._rng.randrange(len(instance_ids))]

    def pick_zone(self) -> int:
        """The zone an outage takes down."""
        return self._rng.randrange(self.spec.zones)

    def zone_of(self, local_id: int) -> int:
        """Deterministic instance-to-zone mapping (``local id % zones``)."""
        return local_id % self.spec.zones
