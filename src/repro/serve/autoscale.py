"""Autoscaler policies: grow and shrink the replica pool mid-simulation.

The capacity planner (:mod:`repro.serve.capacity`) answers the *static*
question — how many replicas does a load need — and open-loop bursts make
its answer expensive: a fleet sized for the burst idles through every
quiet phase.  An autoscaler closes the loop instead.  At a fixed
evaluation cadence the serving engine hands the policy a
:class:`FleetSnapshot` (queue depth, busy/ready/warming counts, and the
time-weighted utilization since the previous tick) and the policy answers
with a desired fleet size.  The engine then provisions new instances
(which serve only after a configurable warm-up delay) or retires surplus
ones (idle replicas leave immediately; busy replicas drain their current
batch first).

Two policy families, one contract (:class:`AutoscalerPolicy`):

* :class:`TargetUtilizationAutoscaler` — the classic control loop cloud
  autoscalers ship: size the fleet so measured busy-fraction tracks a
  target (``desired = ceil(ready * utilization / target)``), with a queue
  override so a deep backlog forces growth even while utilization is
  still catching up.
* :class:`QueueDepthPIDAutoscaler` — a PID-style controller on queue
  depth per ready replica: proportional + integral + derivative terms on
  the setpoint error become a signed fleet-size adjustment.

Both enforce ``min_instances``/``max_instances`` clamps and a scale-in
cooldown (measured from the last applied scaling action in either
direction, the standard anti-flapping rule); scale-out is never held
back.

Policies are stateful (the cooldown clock, PID accumulators) and owned by
one engine run at a time; :meth:`AutoscalerPolicy.reset` re-arms them, and
the engine calls it at the start of every run so repeated runs of one
engine stay deterministic.

Policies are *composition-blind*: they answer with a total fleet size
even when the fleet mixes instance types.  :func:`allocate_fleet` then
splits that total across the types — proportionally to the declared
composition, with the remainder (and therefore the marginal scale-out
instance) going to the cheapest capacity first and the marginal
scale-in coming off the most expensive capacity first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports us)
    from repro.serve.fleet import InstanceType


@dataclass(frozen=True)
class FleetSnapshot:
    """What the engine shows the policy at one evaluation tick.

    Attributes:
        now: simulation time of the tick (seconds).
        provisioned: the pool's converging size — billed instances minus
            those already draining toward retirement (a retiring replica
            still bills until its batch ends, but it is already leaving,
            so policies must not count it as capacity to keep or shed).
        ready: instances able to serve right now (idle + busy).
        busy: instances currently occupied by a batch.
        warming: provisioned instances still inside their warm-up delay.
        queue_depth: requests waiting in the scheduler queue.
        utilization: time-weighted busy fraction of the provisioned pool
            since the previous tick, in ``[0, 1]``.
    """

    now: float
    provisioned: int
    ready: int
    busy: int
    warming: int
    queue_depth: int
    utilization: float


@dataclass(frozen=True)
class ScalingEvent:
    """One applied fleet-size change.

    ``per_type`` carries the ``(type name, previous, target)`` split for
    heterogeneous fleets; it stays empty for the homogeneous default
    fleet, keeping pre-fleet trajectories unchanged.
    """

    time: float
    previous: int
    target: int
    per_type: tuple[tuple[str, int, int], ...] = field(default=())

    @property
    def delta(self) -> int:
        """Signed size change (positive = scale-out)."""
        return self.target - self.previous


@dataclass(frozen=True)
class AutoscaleStats:
    """Scaling trajectory of one engine run (``None`` fields elsewhere
    mean the run had no autoscaler).

    Attributes:
        policy: registry name of the policy that drove the run.
        peak_instances / min_instances: extremes of the provisioned pool.
        final_instances: pool size when the simulation ended.
        scale_out_events / scale_in_events: applied changes per direction.
        events: the full ``(time, previous, target)`` trajectory.
    """

    policy: str
    peak_instances: int
    min_instances: int
    final_instances: int
    scale_out_events: int
    scale_in_events: int
    events: tuple[ScalingEvent, ...]


class AutoscalerPolicy:
    """Base class: desired-size controller with clamps and a cooldown.

    Subclasses implement :meth:`desired`; this base turns their raw
    answer into an applied target by clamping to
    ``[min_instances, max_instances]`` and suppressing a scale-in inside
    :attr:`scale_in_cooldown_seconds` of the last applied change.
    Subclass constructors forward the two clamps here as keyword
    arguments, so their defaults live in this one signature.
    """

    #: Registry name (overridden by registered subclasses; shows up in
    #: reports as ``fleet[<kind>]``).
    kind = "custom"

    #: Simulated seconds between two evaluation ticks.
    interval_seconds = 0.02

    #: A scale-in waits this long after the last applied change.
    scale_in_cooldown_seconds = 0.05

    def __init__(self, min_instances: int = 1, max_instances: int = 16) -> None:
        if min_instances < 1:
            raise ValueError(f"min_instances must be >= 1, got {min_instances}")
        if max_instances < min_instances:
            raise ValueError(
                f"max_instances ({max_instances}) must be >= "
                f"min_instances ({min_instances})"
            )
        self.min_instances = min_instances
        self.max_instances = max_instances
        self.reset()

    def reset(self) -> None:
        """Re-arm the policy for a fresh run (cooldown clock cleared)."""
        self._last_change = -math.inf

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def desired(self, snapshot: FleetSnapshot) -> int:
        """Raw desired fleet size before clamps and the cooldown."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Engine entry point
    # ------------------------------------------------------------------
    def decide(self, snapshot: FleetSnapshot) -> int:
        """The fleet size the engine should apply at this tick.

        Returns ``snapshot.provisioned`` (no change) when the raw desire
        is inside the clamp band already satisfied, or when it is a
        scale-in and the cooldown since the last applied change has not
        elapsed.
        """
        target = max(self.min_instances, min(self.max_instances, self.desired(snapshot)))
        current = snapshot.provisioned
        if target == current:
            return current
        if (
            target < current
            and snapshot.now - self._last_change < self.scale_in_cooldown_seconds
        ):
            return current
        self._last_change = snapshot.now
        return target


class TargetUtilizationAutoscaler(AutoscalerPolicy):
    """Track a busy-fraction target, with a queue-pressure override.

    The core rule sizes the fleet so the measured utilization would land
    on ``target``::

        desired = ceil(ready * utilization / target)

    Utilization alone reacts late to a burst (a saturated pool reads
    ``1.0`` whether the backlog is 2 requests or 2000), so a second term
    grows the fleet enough to drain the backlog within one evaluation
    interval's worth of per-replica work: ``queue_depth / target`` extra
    headroom expressed through the same target normalization.  The larger
    of the two wins; scale-in only happens on the utilization signal once
    the queue is empty.
    """

    kind = "target-util"

    #: Queued requests one ready replica is trusted to absorb before the
    #: backlog term demands another instance.
    queue_headroom = 4

    def __init__(self, target: float = 0.7, **limits) -> None:
        if not 0 < target <= 1:
            raise ValueError(f"utilization target must be in (0, 1], got {target}")
        super().__init__(**limits)
        self.target = target

    def desired(self, snapshot: FleetSnapshot) -> int:
        ready = max(snapshot.ready, 1)
        by_utilization = math.ceil(ready * snapshot.utilization / self.target)
        # Instances already warming are queue-drain capacity in flight:
        # without subtracting them, every tick of a burst re-demands the
        # same backlog and the fleet overshoots to the clamp ceiling.
        backlog_need = max(
            0,
            math.ceil(snapshot.queue_depth / self.queue_headroom)
            - snapshot.warming,
        )
        by_queue = snapshot.ready + backlog_need if snapshot.queue_depth > 0 else 0
        want = max(by_utilization, by_queue)
        # Hold capacity while a genuine backlog drains.  A handful of
        # queued requests is just the batcher doing its size-or-deadline
        # job, so the hold only engages past the fleet's one-round
        # absorption (ready x headroom) — otherwise scale-in would be
        # blocked almost always under steady batched load.
        if snapshot.queue_depth > snapshot.ready * self.queue_headroom:
            want = max(want, snapshot.provisioned)
        return want


class QueueDepthPIDAutoscaler(AutoscalerPolicy):
    """PID-style controller on queue depth per ready replica.

    The error signal is ``queue_depth / ready - target`` (requests queued
    per serving-capable replica versus the setpoint).  Proportional,
    integral, and derivative terms combine into a signed instance delta::

        delta = kp * e  +  ki * I  +  kd * de/dt
        desired = provisioned + round(delta)

    The integral is clamped (anti-windup) so a long overload cannot bank
    unbounded scale-out pressure that would then overshoot the quiet
    phase.
    """

    kind = "queue-pid"

    #: Proportional, integral and derivative gains.
    kp = 0.5
    ki = 0.1
    kd = 0.05

    #: Anti-windup clamp on the integral term.
    integral_limit = 50.0

    def __init__(self, target: float = 2.0, **limits) -> None:
        if target < 0:
            raise ValueError(f"queue setpoint must be >= 0, got {target}")
        super().__init__(**limits)
        self.target = target

    def reset(self) -> None:
        super().reset()
        self._integral = 0.0
        self._previous_error: float | None = None
        self._previous_time: float | None = None

    def desired(self, snapshot: FleetSnapshot) -> int:
        error = snapshot.queue_depth / max(snapshot.ready, 1) - self.target
        dt = (
            snapshot.now - self._previous_time
            if self._previous_time is not None
            else self.interval_seconds
        )
        dt = max(dt, 1e-12)
        self._integral += error * dt
        self._integral = max(
            -self.integral_limit, min(self.integral_limit, self._integral)
        )
        derivative = (
            (error - self._previous_error) / dt
            if self._previous_error is not None
            else 0.0
        )
        self._previous_error = error
        self._previous_time = snapshot.now
        delta = (
            self.kp * error
            + self.ki * self._integral
            + self.kd * derivative * self.interval_seconds
        )
        return snapshot.provisioned + int(round(delta))


#: Autoscaler-policy registry (CLI / scenario ``autoscaler`` knob).
AUTOSCALERS: dict[str, type[AutoscalerPolicy]] = {
    "target-util": TargetUtilizationAutoscaler,
    "queue-pid": QueueDepthPIDAutoscaler,
}


def make_autoscaler(kind: str, **kwargs) -> AutoscalerPolicy:
    """Instantiate a registered autoscaler policy by name.

    Keyword arguments forward to the policy's constructor: ``target``,
    ``min_instances`` and ``max_instances``.
    """
    try:
        cls = AUTOSCALERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown autoscaler {kind!r}; choose from {sorted(AUTOSCALERS)}"
        ) from None
    return cls(**kwargs)


def allocate_fleet(
    total: int,
    types: Sequence["InstanceType"],
    weights: Sequence[int],
) -> list[int]:
    """Split a total fleet size across instance types, cost-weighted.

    The base split is largest-remainder apportionment proportional to
    ``weights`` (the *declared* composition, so the mix does not drift
    as the autoscaler moves the total up and down).  The integer
    remainder — which is exactly where the marginal scale-out instance
    lands and where the marginal scale-in comes from — goes to the
    cheapest capacity first, ordered by
    :attr:`~repro.serve.fleet.InstanceType.cost_per_capacity` (ties to
    declaration order).  Apportioning the target rather than the delta
    makes the split a pure function of ``(total, weights)``: the same
    total always yields the same composition, however it was reached.

    A single-type fleet degenerates to ``[total]`` — the pre-fleet
    scaling behavior, untouched.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if len(types) == 1:
        return [total]
    if len(weights) != len(types):
        raise ValueError("weights and types must align")
    scale = sum(weights)
    if scale == 0 or any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative with a positive sum")
    counts = [total * w // scale for w in weights]
    remainder = total - sum(counts)
    cheap_first = sorted(
        range(len(types)), key=lambda i: (types[i].cost_per_capacity, i)
    )
    while remainder > 0:
        for i in cheap_first:
            if remainder == 0:
                break
            # Zero-weight slices stay empty: the composition declared
            # them out, and remainder must not resurrect them.
            if weights[i] == 0:
                continue
            counts[i] += 1
            remainder -= 1
    return counts
