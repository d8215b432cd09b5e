"""Typed instances and heterogeneous replica fleets.

Until this module existed every replica in the serving simulation was
identical; the fleet was a single integer.  Real fleets mix *instance
types* — a big accelerator stack with more tiers serves a batch faster
and admits a larger batch ceiling, but bills more per second and takes
longer to provision; a small stack is slow and cheap.  Three pieces turn
that into a model:

* :class:`InstanceType` — the immutable spec of one instance flavor:
  batch ceiling, service-time scale (relative to the calibrated
  accelerator service model), and $-cost per billed second.  Every type
  provisions with the engine's one warm-up delay.
  :data:`INSTANCE_TYPES` registers the standard flavors
  (``small`` / ``default`` / ``large``).
* :class:`FleetSpec` — a declared composition such as
  ``small:2,large:1``, parsed from and rendered back to the CLI string
  form.  A bare instance count is the degenerate spec ``default:N``.
* :class:`TypedReplicaPool` — the multi-type generalization of
  :class:`ReplicaPool`: one single-type pool per declared slice, global
  dispatch/billing views the engine aggregates over, per-type
  warming/draining accounting, and lazily-integrated per-type
  instance-seconds and $-cost (accrued only when a slice's occupancy
  changes, so the event loop never pays per-event for the accounting).

The single-type pool :class:`ReplicaPool` lives here too; each slice
of a :class:`TypedReplicaPool` is one, and a fleet of one ``default``
slice is bit-identical to the pre-fleet engine, which is what the
serving regression baseline pins.  The engine itself uses only
:class:`TypedReplicaPool`; ``repro.serve`` exports both.

Scale-out across types follows a cost-weighted order (see
:func:`repro.serve.autoscale.allocate_fleet`): the cheapest capacity is
provisioned first and the most expensive capacity is retired first, so
an autoscaled heterogeneous fleet drifts toward the cost-efficient
composition the capacity planner would pick statically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class InstanceType:
    """One instance flavor the fleet can be composed of.

    Attributes:
        name: registry name (``small`` / ``default`` / ``large`` / ...).
        max_batch: batch-size ceiling of this hardware (``0`` means no
            ceiling beyond the scheduler's own ``max_batch``).
        service_scale: multiplier on the calibrated batch service time
            (``1.0`` for the default type; ``< 1`` is faster).
        cost_per_second: $-cost of one billed instance-second.
    """

    name: str
    max_batch: int = 0
    service_scale: float = 1.0
    cost_per_second: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("instance type needs a name")
        if self.max_batch < 0:
            raise ValueError(f"max_batch must be >= 0, got {self.max_batch}")
        if self.service_scale <= 0:
            raise ValueError(
                f"service_scale must be positive, got {self.service_scale}"
            )
        if self.cost_per_second <= 0:
            raise ValueError(
                f"cost_per_second must be positive, got {self.cost_per_second}"
            )

    @property
    def cost_per_capacity(self) -> float:
        """$-cost per unit of serving capacity (lower is more efficient).

        One instance's capacity is inversely proportional to its service
        time, so cost-efficiency is ``cost_per_second * service_scale``
        — the ordering key for cost-weighted scale-out.
        """
        return self.cost_per_second * self.service_scale


#: The standard instance flavors.  The ``default`` type reproduces the
#: pre-fleet engine exactly (scale 1, $1/s, no batch ceiling).
#: ``small`` (a 2-tier stack) is slow but cost-efficient per unit of
#: work; ``large`` (a 6-tier stack) is fast with a high batch ceiling but
#: cost-inefficient — worth paying for only where tail latency demands
#: it.
INSTANCE_TYPES: dict[str, InstanceType] = {
    "small": InstanceType(
        name="small",
        max_batch=4,
        service_scale=1.5,
        cost_per_second=0.5,
    ),
    "default": InstanceType(name="default"),
    "large": InstanceType(
        name="large",
        max_batch=16,
        service_scale=0.5,
        cost_per_second=2.5,
    ),
}


def get_instance_type(name: str) -> InstanceType:
    """Look up a registered instance type by name."""
    try:
        return INSTANCE_TYPES[name]
    except KeyError:
        raise ValueError(
            f"unknown instance type {name!r}; "
            f"choose from {sorted(INSTANCE_TYPES)}"
        ) from None


@dataclass(frozen=True)
class FleetSpec:
    """A declared fleet composition: ordered ``(type name, count)`` slices.

    Declaration order is semantic — it is the deterministic tie-break
    for dispatch and scale allocation — so the spec preserves it rather
    than sorting.
    """

    slices: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.slices:
            raise ValueError("a fleet needs at least one slice")
        seen = set()
        for name, count in self.slices:
            get_instance_type(name)
            if name in seen:
                raise ValueError(f"duplicate instance type {name!r} in fleet")
            seen.add(name)
            if count < 0:
                raise ValueError(f"instance count must be >= 0, got {count}")
        if self.total() < 1:
            raise ValueError("a fleet needs at least one instance in total")

    @classmethod
    def parse(cls, text: str) -> "FleetSpec":
        """Parse the CLI form ``"small:2,large:1"`` (or ``"large:3"``)."""
        if not text or not text.strip():
            raise ValueError("empty fleet spec")
        slices = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, count_text = part.partition(":")
            if not sep:
                raise ValueError(
                    f"bad fleet slice {part!r}; expected 'type:count'"
                )
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(
                    f"bad instance count {count_text!r} in fleet slice {part!r}"
                ) from None
            slices.append((name.strip(), count))
        return cls(slices=tuple(slices))

    @classmethod
    def homogeneous(cls, type_name: str, count: int) -> "FleetSpec":
        """A single-type fleet (``default:N`` is the pre-fleet engine)."""
        return cls(slices=((type_name, count),))

    def render(self) -> str:
        """Back to the CLI string form."""
        return ",".join(f"{name}:{count}" for name, count in self.slices)

    def total(self) -> int:
        """Total declared instances across every slice."""
        return sum(count for _, count in self.slices)

    def types(self) -> tuple[InstanceType, ...]:
        """The resolved :class:`InstanceType` per slice, in order."""
        return tuple(get_instance_type(name) for name, _ in self.slices)

    def counts(self) -> dict[str, int]:
        """``{type name: count}`` view of the composition."""
        return dict(self.slices)

    @property
    def is_default(self) -> bool:
        """Whether this is a pure-default fleet (the pre-fleet model)."""
        return len(self.slices) == 1 and self.slices[0][0] == "default"

    def cost_rate(self) -> float:
        """$-cost per second of the declared composition, all slices up."""
        return sum(
            count * get_instance_type(name).cost_per_second
            for name, count in self.slices
        )


class ReplicaPool:
    """A dynamic set of replica instances with warm-up and draining.

    Instances move through four states: *warming* (provisioned, billed,
    not yet serving), *free* (idle, dispatchable), *busy* (occupied by a
    batch), and *retiring* (busy, will leave the pool when the batch
    finishes instead of returning to free).  ``provisioned`` counts
    everything billed; ``target_size`` excludes retiring instances — it
    is the size the pool is converging to and what the autoscaler reasons
    about.

    Scale-in removes the cheapest capacity first: instances still warming
    (nothing lost), then idle ones, and only then does it mark busy
    instances to retire on departure.  Scale-out conversely rescues
    retiring instances before provisioning cold ones — a draining replica
    is already warm.  All choices are by instance id, so the pool is
    deterministic.

    Each pool is one slice of a :class:`TypedReplicaPool`, and a slice
    may drain to zero instances: the typed fleet, not the slice, keeps
    at least one instance overall.
    """

    def __init__(self, instances: int, warmup_seconds: float = 0.0) -> None:
        if instances < 0:
            raise ValueError(f"instance count must be >= 0, got {instances}")
        if warmup_seconds < 0:
            raise ValueError("warm-up must be non-negative")
        self.warmup_seconds = warmup_seconds
        self._free: list[int] = list(range(instances))
        heapq.heapify(self._free)
        self._busy: set[int] = set()
        self._retiring: set[int] = set()
        self._warming: dict[int, float] = {}
        #: Billed instances: warming + free + busy (retiring included).
        #: A plain attribute kept in step with every state change — the
        #: engine's failure-aware routing reads it on each enqueue.
        self.provisioned = instances
        self._next_id = instances
        #: Instances the most recent :meth:`scale_to` rescued from
        #: draining (already warm, so they rejoin without a warm-up) —
        #: what the trace recorder reports as ``rescue`` events.
        self.last_rescued: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def target_size(self) -> int:
        """Where the pool is heading once retiring instances drain."""
        return self.provisioned - len(self._retiring)

    @property
    def ready_count(self) -> int:
        """Instances able to serve now (free + busy)."""
        return len(self._free) + len(self._busy)

    @property
    def busy_count(self) -> int:
        return len(self._busy)

    @property
    def warming_count(self) -> int:
        return len(self._warming)

    @property
    def retiring_count(self) -> int:
        return len(self._retiring)

    def has_free(self) -> bool:
        return bool(self._free)

    # ------------------------------------------------------------------
    # Dispatch lifecycle
    # ------------------------------------------------------------------
    def acquire(self) -> int:
        """Take the lowest-id free instance for a batch."""
        instance = heapq.heappop(self._free)
        self._busy.add(instance)
        return instance

    def release(self, instance: int) -> bool:
        """Return a finished instance; ``False`` when it retires instead."""
        self._busy.discard(instance)
        if instance in self._retiring:
            self._retiring.discard(instance)
            self.provisioned -= 1
            return False
        heapq.heappush(self._free, instance)
        return True

    def warmed(self, instance: int) -> bool:
        """Promote a warmed instance to free (``False`` if it was
        cancelled by a scale-in while still warming)."""
        if instance not in self._warming:
            return False
        del self._warming[instance]
        heapq.heappush(self._free, instance)
        return True

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def instance_ids(self) -> tuple[int, ...]:
        """Every provisioned instance id (free + busy + warming), sorted.

        The fault injector picks crash victims from this view; sorting
        keeps victim selection deterministic under a fixed seed.
        """
        return tuple(sorted([*self._free, *self._busy, *self._warming]))

    def kill(self, instance: int) -> str:
        """Tear ``instance`` down regardless of state (fault injection).

        Returns the state it was in (``"warming"`` / ``"free"`` /
        ``"busy"`` / ``"retiring"``) so the caller can clean up whatever
        that state implied — a busy victim has an in-flight batch to
        fail, a warming one only loses its pending warm-up event.
        """
        if instance in self._warming:
            del self._warming[instance]
            state = "warming"
        elif instance in self._busy:
            self._busy.discard(instance)
            state = "busy"
            if instance in self._retiring:
                self._retiring.discard(instance)
                state = "retiring"
        else:
            self._free.remove(instance)
            heapq.heapify(self._free)
            state = "free"
        self.provisioned -= 1
        return state

    def provision(self, now: float) -> tuple[int, float]:
        """Provision one fresh instance (fault recovery).

        Returns ``(instance, ready_time)`` exactly like one entry of
        :meth:`scale_to`'s result: the replacement pays the normal
        warm-up before it can serve.
        """
        instance = self._next_id
        self._next_id += 1
        self.provisioned += 1
        if self.warmup_seconds > 0:
            ready_at = now + self.warmup_seconds
            self._warming[instance] = ready_at
            return (instance, ready_at)
        heapq.heappush(self._free, instance)
        return (instance, now)

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def scale_to(self, target: int, now: float) -> list[tuple[int, float]]:
        """Move the pool's ``target_size`` to ``target``.

        Returns ``(instance, ready_time)`` for each newly provisioned
        instance so the engine can schedule its warm-up completion
        (``ready_time == now`` when there is no warm-up delay).
        """
        if target < 0:
            raise ValueError(f"cannot scale below zero instances, got {target}")
        started: list[tuple[int, float]] = []
        rescued: list[int] = []
        # Grow: rescue draining instances first — they are already warm.
        while self.target_size < target and self._retiring:
            instance = min(self._retiring)
            self._retiring.discard(instance)
            rescued.append(instance)
        self.last_rescued = tuple(rescued)
        while self.target_size < target:
            instance = self._next_id
            self._next_id += 1
            self.provisioned += 1
            if self.warmup_seconds > 0:
                ready_at = now + self.warmup_seconds
                self._warming[instance] = ready_at
                started.append((instance, ready_at))
            else:
                heapq.heappush(self._free, instance)
                started.append((instance, now))
        # Shrink: cancel warm-ups, then idle instances, then drain busy ones.
        while self.target_size > target and self._warming:
            del self._warming[max(self._warming)]
            self.provisioned -= 1
        while self.target_size > target and self._free:
            self._free.remove(max(self._free))
            heapq.heapify(self._free)
            self.provisioned -= 1
        while self.target_size > target:
            candidates = self._busy - self._retiring
            if not candidates:
                break
            self._retiring.add(max(candidates))
        return started


@dataclass(frozen=True)
class TypeUsage:
    """What one fleet slice did over a serving run."""

    name: str
    initial: int
    peak: int
    final: int
    instance_seconds: float
    busy_seconds: float
    cost_dollars: float
    batches: int
    completed: int


class _Slice:
    """One instance type's pool plus its lazily-accrued billing integrals."""

    __slots__ = (
        "itype", "pool", "index", "instance_integral", "busy_integral",
        "last_accrued", "peak", "minimum", "batches", "completed", "at_mark",
    )

    def __init__(self, itype: InstanceType, pool: ReplicaPool, index: int) -> None:
        self.itype = itype
        self.pool = pool
        self.index = index
        self.instance_integral = 0.0
        self.busy_integral = 0.0
        self.last_accrued = 0.0
        self.peak = pool.provisioned
        self.minimum = pool.provisioned
        self.batches = 0
        self.completed = 0
        #: ``(instance_seconds, busy_seconds)`` at the fleet's billing
        #: mark, kept by the first accrual that moves past it.
        self.at_mark = (0.0, 0.0)

    def accrue(self, now: float, mark: float) -> None:
        """Integrate billed/busy occupancy up to ``now`` (call *before*
        any mutation that changes the occupancy)."""
        dt = now - self.last_accrued
        if dt > 0:
            if self.last_accrued <= mark < now:
                self.at_mark = (
                    self.instance_seconds(mark), self.busy_seconds(mark)
                )
            self.instance_integral += self.pool.provisioned * dt
            self.busy_integral += self.pool.busy_count * dt
            self.last_accrued = now

    def instance_seconds(self, now: float) -> float:
        """Billed instance-seconds through ``now`` (no mutation)."""
        return self.instance_integral + self.pool.provisioned * max(
            0.0, now - self.last_accrued
        )

    def busy_seconds(self, now: float) -> float:
        """Busy instance-seconds through ``now`` (no mutation)."""
        return self.busy_integral + self.pool.busy_count * max(
            0.0, now - self.last_accrued
        )


class TypedReplicaPool:
    """A heterogeneous fleet: one :class:`ReplicaPool` per instance type.

    The engine's dispatch loop addresses instances by *handle* — a
    ``(slice index, local id)`` pair — and reads aggregate counts
    (``provisioned`` / ``busy_count`` / ...) exactly as it read the
    single pool before, so a one-slice ``default`` fleet reproduces the
    pre-fleet engine bit for bit.  Every slice provisions with the one
    ``default_warmup_seconds`` delay.

    Per-type billing (instance-seconds and $-cost) is accrued lazily on
    occupancy changes rather than per event: the hot event loop keeps
    its integer-count integrals, and the typed accounting costs one
    accrual per scale/dispatch transition.  Each departure
    (:meth:`release`) moves the *billing mark*: :meth:`usage` bills
    through the last departure by default, so scale or fault events
    after it never bill.

    Scale decisions arrive as a *total* fleet size (the autoscaler
    policies are composition-blind); :func:`repro.serve.autoscale
    .allocate_fleet` splits the total across slices in cost-weighted
    order.
    """

    def __init__(
        self, spec: FleetSpec, default_warmup_seconds: float = 0.0
    ) -> None:
        self.spec = spec
        self.slices: list[_Slice] = []
        for index, (name, count) in enumerate(spec.slices):
            pool = ReplicaPool(count, warmup_seconds=default_warmup_seconds)
            self.slices.append(_Slice(get_instance_type(name), pool, index))
        self.types: tuple[InstanceType, ...] = tuple(s.itype for s in self.slices)
        #: Aggregate occupancy, maintained incrementally: the engine's
        #: event loop reads both once per event, so they are plain
        #: attributes rather than sums over slices.
        self.provisioned = sum(s.pool.provisioned for s in self.slices)
        self.busy_count = 0
        #: Per-type ``(name, previous, target)`` detail of the most
        #: recent :meth:`scale_to` (what typed scale events report).
        self.last_scale_detail: tuple[tuple[str, int, int], ...] = ()
        #: Rescued-instance labels of the most recent :meth:`scale_to`
        #: (bare ints on the pure-default path, matching pre-fleet traces).
        self.last_rescued: tuple[int | str, ...] = ()
        #: Time of the last departure: where :meth:`usage` stops billing.
        self.billing_mark = 0.0

    # ------------------------------------------------------------------
    # Aggregate state (the engine's event-loop view)
    # ------------------------------------------------------------------
    @property
    def is_typed(self) -> bool:
        """Whether the fleet differs from the pre-fleet ``default:N``."""
        return not self.spec.is_default

    @property
    def target_size(self) -> int:
        return sum(s.pool.target_size for s in self.slices)

    @property
    def ready_count(self) -> int:
        return sum(s.pool.ready_count for s in self.slices)

    @property
    def warming_count(self) -> int:
        return sum(s.pool.warming_count for s in self.slices)

    @property
    def retiring_count(self) -> int:
        return sum(s.pool.retiring_count for s in self.slices)

    def has_free(self) -> bool:
        return any(s.pool.has_free() for s in self.slices)

    # ------------------------------------------------------------------
    # Dispatch lifecycle (handle = (slice index, local instance id))
    # ------------------------------------------------------------------
    def acquire(self, index: int, now: float) -> tuple[int, int]:
        slice_ = self.slices[index]
        slice_.accrue(now, self.billing_mark)
        slice_.batches += 1
        self.busy_count += 1
        return (index, slice_.pool.acquire())

    def release(self, handle: tuple[int, int], now: float) -> bool:
        index, instance = handle
        slice_ = self.slices[index]
        self.billing_mark = now
        slice_.accrue(now, self.billing_mark)
        self.busy_count -= 1
        returned = slice_.pool.release(instance)
        if not returned:  # the instance retired instead of going free
            self.provisioned -= 1
        return returned

    def warmed(self, handle: tuple[int, int], now: float) -> bool:
        index, instance = handle
        slice_ = self.slices[index]
        slice_.accrue(now, self.billing_mark)
        return slice_.pool.warmed(instance)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def instance_ids(self, index: int) -> tuple[int, ...]:
        """Provisioned instance ids of slice ``index`` (victim pool)."""
        return self.slices[index].pool.instance_ids()

    def crash(self, handle: tuple[int, int], now: float) -> str:
        """Tear down a crashed instance; returns its prior state.

        Billing invariant: the slice accrues up to ``now`` *before* the
        kill, so a busy victim's partial busy-seconds land in its type's
        integrals and the ``busy_count`` aggregate never goes negative
        — the crash is billed exactly like a departure that happened at
        the crash instant.
        """
        index, instance = handle
        slice_ = self.slices[index]
        slice_.accrue(now, self.billing_mark)
        state = slice_.pool.kill(instance)
        self.provisioned -= 1
        if state in ("busy", "retiring"):
            self.busy_count -= 1
        slice_.minimum = min(slice_.minimum, slice_.pool.target_size)
        return state

    def restore(self, index: int, now: float) -> tuple[tuple[int, int], float]:
        """Provision one replacement instance in slice ``index``.

        Returns ``(handle, ready_time)``; the replacement pays the
        slice's normal warm-up, so recovery is never instantaneous
        unless provisioning itself is.
        """
        slice_ = self.slices[index]
        slice_.accrue(now, self.billing_mark)
        instance, ready_at = slice_.pool.provision(now)
        self.provisioned += 1
        slice_.peak = max(slice_.peak, slice_.pool.provisioned)
        return ((index, instance), ready_at)

    def label(self, handle: tuple[int, int]) -> int | str:
        """Trace-friendly instance name.

        The pre-fleet engine traced bare integer ids; a pure-default
        fleet keeps that form so recorded traces stay bit-identical.
        Typed fleets qualify the id with the type name.
        """
        index, instance = handle
        if not self.is_typed:
            return instance
        return f"{self.slices[index].itype.name}:{instance}"

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def scale_to(
        self, target: int, now: float
    ) -> list[tuple[tuple[int, int], float]]:
        """Move the fleet's total ``target_size`` to ``target``.

        The split across slices follows the cost-weighted allocation
        (cheapest capacity provisioned first, most expensive retired
        first); returns ``(handle, ready_time)`` per newly provisioned
        instance, exactly like :meth:`ReplicaPool.scale_to`.
        """
        from repro.serve.autoscale import allocate_fleet

        if target < 1:
            raise ValueError(f"cannot scale below one instance, got {target}")
        current = [s.pool.target_size for s in self.slices]
        desired = allocate_fleet(
            target, self.types, [count for _, count in self.spec.slices]
        )
        started: list[tuple[tuple[int, int], float]] = []
        detail: list[tuple[str, int, int]] = []
        rescued: list[int | str] = []
        for slice_, previous, want in zip(self.slices, current, desired):
            if want == previous:
                continue
            slice_.accrue(now, self.billing_mark)
            for instance, ready_at in slice_.pool.scale_to(want, now):
                started.append(((slice_.index, instance), ready_at))
            detail.append((slice_.itype.name, previous, want))
            rescued.extend(
                self.label((slice_.index, i))
                for i in slice_.pool.last_rescued
            )
            slice_.peak = max(slice_.peak, slice_.pool.provisioned)
            slice_.minimum = min(slice_.minimum, slice_.pool.target_size)
        self.last_scale_detail = tuple(detail)
        self.last_rescued = tuple(rescued)
        # Scaling moves instances through every state (cancelled
        # warm-ups, retired idlers, fresh provisions): recompute the
        # cached aggregates once per scale decision, O(slices).
        self.provisioned = sum(s.pool.provisioned for s in self.slices)
        self.busy_count = sum(s.pool.busy_count for s in self.slices)
        return started

    # ------------------------------------------------------------------
    # Billing
    # ------------------------------------------------------------------
    def cost_dollars(self, now: float) -> float:
        """$-cost of all billed capacity through ``now``."""
        return sum(
            s.instance_seconds(now) * s.itype.cost_per_second
            for s in self.slices
        )

    def usage(self, now: float | None = None) -> tuple[TypeUsage, ...]:
        """Per-type usage snapshot through ``now``, each slice's
        ``initial`` being its declared count.

        ``None`` bills through the billing mark (the last departure), as
        the engine's report does: a slice that accrued past the mark
        answers with the reading it kept there.
        """
        usage = []
        for s in self.slices:
            if now is None and s.last_accrued > self.billing_mark:
                instance_seconds, busy_seconds = s.at_mark
            else:
                t = self.billing_mark if now is None else now
                instance_seconds, busy_seconds = (
                    s.instance_seconds(t), s.busy_seconds(t)
                )
            usage.append(TypeUsage(
                name=s.itype.name,
                initial=self.spec.slices[s.index][1],
                peak=s.peak,
                final=s.pool.target_size,
                instance_seconds=instance_seconds,
                busy_seconds=busy_seconds,
                cost_dollars=instance_seconds * s.itype.cost_per_second,
                batches=s.batches,
                completed=s.completed,
            ))
        return tuple(usage)

