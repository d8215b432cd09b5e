"""Batching scheduler: pack queued requests into dispatchable batches.

The scheduler owns the admission queue between the arrival stream and the
replica pool.  A batch becomes *ready* when either the queue holds a full
``max_batch`` or the oldest queued request has waited ``max_wait_seconds``
(the classic size-or-deadline rule serving systems use to trade latency
for throughput).  Two batch-composition policies:

* ``fifo`` — strict global arrival order, tenant-blind.
* ``wfq`` — weighted fair queueing across tenants: per-tenant FIFO queues
  drained by stride scheduling (each tenant advances a virtual time by
  ``1 / weight`` per dispatched request; the lowest virtual time goes
  next), so a heavy tenant cannot starve light ones while full batches
  still form.

The scheduler is pure data structure — no clock of its own.  The serving
engine tells it the current time; given the same enqueue/pop sequence it
is fully deterministic (ties break on tenant name).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping

from repro.serve.arrivals import Request

#: Batch-composition policies.
POLICIES = ("fifo", "wfq")

_GRAPH_SIZE = attrgetter("graph_size")


@dataclass(frozen=True)
class Batch:
    """One dispatchable unit of work: requests served together."""

    requests: tuple[Request, ...]
    formed_time: float

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch needs at least one request")

    @property
    def size(self) -> int:
        """Number of requests served together."""
        return len(self.requests)

    @property
    def graph_sizes(self) -> tuple[int, ...]:
        """Per-request graph sizes (the service model's input)."""
        return tuple(map(_GRAPH_SIZE, self.requests))

    @property
    def tenants(self) -> tuple[str, ...]:
        """Distinct tenants represented in the batch, sorted."""
        return tuple(sorted({r.tenant for r in self.requests}))


class BatchingScheduler:
    """Size-or-deadline batching with FIFO or weighted-fair composition."""

    def __init__(
        self,
        max_batch: int = 8,
        max_wait_seconds: float = 0.005,
        policy: str = "fifo",
        tenant_weights: Mapping[str, float] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if tenant_weights is not None and any(
            w <= 0 for w in tenant_weights.values()
        ):
            raise ValueError("tenant weights must be positive")
        self.max_batch = max_batch
        self.max_wait_seconds = max_wait_seconds
        self.policy = policy
        self.tenant_weights = dict(tenant_weights or {})
        self._fifo: deque[Request] = deque()
        self._queues: dict[str, deque[Request]] = {}
        self._vtime: dict[str, float] = {}
        self._vclock = 0.0  # wfq: virtual time service has progressed to
        self._depth = 0
        # wfq: the earliest arrival among the tenant-queue heads, or None
        # when a pop or drain may have moved it (recomputed on demand).
        self._head: float | None = None

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting across every tenant queue."""
        return self._depth

    def oldest_arrival(self) -> float | None:
        """Arrival time of the longest-waiting request (None when empty)."""
        if self._depth == 0:
            return None
        if self.policy == "fifo":
            return self._fifo[0].arrival_time
        if self._head is None:
            # The minimum over the queue *heads*, not over every queued
            # request: a retried request keeps its first arrival_time and
            # may wait behind newer ones.
            self._head = min(
                q[0].arrival_time for q in self._queues.values() if q
            )
        return self._head

    def enqueue(self, request: Request) -> None:
        """Admit one request (the engine calls this in arrival order)."""
        if self.policy == "fifo":
            self._fifo.append(request)
        else:
            queue = self._queues.get(request.tenant)
            if queue is None:
                queue = self._queues[request.tenant] = deque()
            if not queue:
                self._activate(request.tenant)
                # The request becomes its queue's head.
                arrival = request.arrival_time
                if self._depth == 0:
                    self._head = arrival
                elif self._head is not None and arrival < self._head:
                    self._head = arrival
            queue.append(request)
        self._depth += 1

    def ready(self, now: float, limit: int | None = None) -> bool:
        """Whether a batch should be dispatched at time ``now``.

        ``limit`` is a per-dispatch batch ceiling below ``max_batch`` —
        the hardware cap of the instance type asking (heterogeneous
        fleets); a full batch *for that type* is ready sooner.
        """
        if self._depth == 0:
            return False
        size = (
            self.max_batch if limit is None else min(self.max_batch, limit)
        )
        if self._depth >= size:
            return True
        oldest = self.oldest_arrival()
        assert oldest is not None
        # The engine keeps one deadline event per queue, at
        # ``oldest_arrival() + max_wait``, re-armed whenever the head
        # changes.  A retried or hedged request keeps its original
        # ``arrival_time``, so it is usually past its deadline when it
        # is enqueued again and is ready at once.  The epsilon absorbs
        # the float rounding of ``now - arrival`` so a fired deadline
        # always finds its queue head ready (liveness).
        return now - oldest >= self.max_wait_seconds - 1e-9

    # ------------------------------------------------------------------
    # Batch composition
    # ------------------------------------------------------------------
    def pop_batch(self, now: float, limit: int | None = None) -> Batch:
        """Form and remove the next batch (up to ``max_batch`` requests,
        further capped by ``limit`` — the acquiring instance type's batch
        ceiling — when given)."""
        if self._depth == 0:
            raise ValueError("cannot pop a batch from an empty queue")
        size = (
            self.max_batch if limit is None else min(self.max_batch, limit)
        )
        take = min(size, self._depth)
        if self.policy == "fifo":
            chosen = [self._fifo.popleft() for _ in range(take)]
        else:
            chosen = [self._pop_fair() for _ in range(take)]
        self._depth -= take
        return Batch(requests=tuple(chosen), formed_time=now)

    def drain(self) -> tuple[Request, ...]:
        """Remove and return everything queued, in pop order.

        Failure-aware routing uses this when a target loses its last
        serving instance: the dead target's queue is drained and its
        requests re-enqueued onto healthy targets instead of waiting on
        capacity that no longer exists.  The scheduler itself is left
        empty but keeps its fairness state, so a revived target resumes
        with no banked credit or debt.
        """
        drained: list[Request] = []
        while self._depth > 0:
            if self.policy == "fifo":
                drained.append(self._fifo.popleft())
            else:
                drained.append(self._pop_fair())
            self._depth -= 1
        self._head = None
        return tuple(drained)

    def spawn(self) -> "BatchingScheduler":
        """A fresh, empty scheduler with this one's configuration.

        The routing layer needs one queue per target with identical
        batching knobs; spawning from the configured prototype keeps
        direct engine construction (one scheduler, one queue) working
        unchanged.
        """
        return BatchingScheduler(
            max_batch=self.max_batch,
            max_wait_seconds=self.max_wait_seconds,
            policy=self.policy,
            tenant_weights=self.tenant_weights,
        )

    def _weight(self, tenant: str) -> float:
        return self.tenant_weights.get(tenant, 1.0)

    def _activate(self, tenant: str) -> None:
        """(Re)admit a tenant to the stride race at the current progress.

        Joining at the virtual clock means neither banked credit (an idle
        tenant returning with an ancient small virtual time and
        monopolizing batches) nor banked debt (a tenant that was served
        while alone being starved once competitors show up): service is
        fair from the moment of (re)activation onward.
        """
        self._vtime[tenant] = max(
            self._vtime.get(tenant, self._vclock), self._vclock
        )

    def _pop_fair(self) -> Request:
        """Stride scheduling: serve the lowest virtual time, tie on name."""
        vtime = self._vtime
        tenant = None
        best = 0.0
        for t, q in self._queues.items():
            if q:
                v = vtime[t]
                if tenant is None or v < best or (v == best and t < tenant):
                    tenant, best = t, v
        vtime[tenant] = best + 1.0 / self._weight(tenant)
        self._vclock = vtime[tenant]
        self._head = None
        return self._queues[tenant].popleft()


class SchedulerGroup:
    """The routing layer's per-target queues, one scheduler per target.

    A thin aggregate over named :class:`BatchingScheduler` instances: the
    engine enqueues into the target a routing policy picked and reads the
    *total* queue depth for admission, autoscaling, and sampling — the
    same number the single shared queue used to report.  Target order is
    declaration order (deterministic iteration).
    """

    def __init__(self, schedulers: Mapping[str, BatchingScheduler]) -> None:
        if not schedulers:
            raise ValueError("a scheduler group needs at least one target")
        self._schedulers = dict(schedulers)
        self.targets: tuple[str, ...] = tuple(self._schedulers)

    def __getitem__(self, target: str) -> BatchingScheduler:
        return self._schedulers[target]

    def __iter__(self):
        return iter(self._schedulers.values())

    @property
    def queue_depth(self) -> int:
        """Waiting requests summed across every target queue."""
        return sum(s.queue_depth for s in self._schedulers.values())

    def depth_of(self, target: str) -> int:
        """One target's queue depth (what routing policies inspect)."""
        return self._schedulers[target].queue_depth
