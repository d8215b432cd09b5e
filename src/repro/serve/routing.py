"""Routing policies: which queue a request joins, which queues a type drains.

The pre-fleet engine had exactly one queue; with typed fleets
(:mod:`repro.serve.fleet`) a *routing policy* sits between admission and
the per-target batching schedulers.  A policy declares a set of **targets**
(queue names), maps each admitted request to one target
(:meth:`RoutingPolicy.route`), and tells each instance type which targets
it drains and in what priority order (:meth:`RoutingPolicy.serves`).

The default :class:`SharedQueueRouting` keeps the single shared queue:
every type drains the one :data:`SHARED` target, so a homogeneous fleet
behind it is *bit-identical* to the pre-routing engine — the differential
oracle the regression suite pins.  The typed policies each split the
queue by instance type:

* :class:`SizeAffinityRouting` — large graphs go to the fastest type
  (lowest ``service_scale``); everything else spreads across the
  remaining types by queue depth.  This is the policy that makes a
  heterogeneous fleet pay off: the expensive fast instances serve only
  the requests whose tail actually needs them.
* :class:`PowerOfTwoRouting` — the classic load balancer: sample two
  type queues with a seeded RNG, join the shallower.
* :class:`TenantPinRouting` — each tenant is pinned to one type
  (first-seen round-robin across types), giving per-tenant isolation at
  the fleet level.

All policies are deterministic functions of the seeded request stream:
po2's RNG is seeded, pinning follows first-seen order, and every
tie-break falls back to declaration order.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.serve.arrivals import Request
from repro.serve.fleet import InstanceType

#: The single-queue target name (the pre-routing engine's only queue).
SHARED = "shared"


class RoutingPolicy:
    """Base class: target declaration + request-to-target mapping.

    One policy instance is owned by one engine run (policies may hold
    routing state — RNG position, tenant pins); the engine constructs a
    fresh policy per run, so repeated runs stay deterministic.

    Args:
        types: the fleet's instance types, in declaration order.
        seed: scenario seed (only randomized policies consume it).
    """

    #: Registry name (shows up in scenario labels and reports).
    name = "base"

    def __init__(self, types: Sequence[InstanceType], seed: int = 0) -> None:
        if not types:
            raise ValueError("routing needs at least one instance type")
        self.types = tuple(types)
        self.seed = seed

    def targets(self) -> tuple[str, ...]:
        """Queue names this policy routes to, in declaration order."""
        raise NotImplementedError

    def serves(self, type_name: str) -> tuple[str, ...]:
        """Targets an instance of ``type_name`` drains, highest priority
        first."""
        raise NotImplementedError

    def route(
        self, request: Request, depth_of: Callable[[str], int]
    ) -> str:
        """The target ``request`` joins (``depth_of`` reads queue depths)."""
        raise NotImplementedError


class SharedQueueRouting(RoutingPolicy):
    """One queue for everyone — the pre-routing engine, kept bit-identical.

    Every instance type drains the single :data:`SHARED` target, so with
    a homogeneous ``default`` fleet the whole routing layer degenerates
    to exactly the original dispatch loop.
    """

    name = "shared_queue"

    def targets(self) -> tuple[str, ...]:
        return (SHARED,)

    def serves(self, type_name: str) -> tuple[str, ...]:
        return (SHARED,)

    def route(
        self, request: Request, depth_of: Callable[[str], int]
    ) -> str:
        return SHARED


class _PerTypeRouting(RoutingPolicy):
    """Shared shape for the type-partitioned policies: one queue per
    instance type, each type draining only its own queue."""

    def targets(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.types)

    def serves(self, type_name: str) -> tuple[str, ...]:
        return (type_name,)


class SizeAffinityRouting(_PerTypeRouting):
    """Steer large graphs to the fastest type; balance the rest by depth.

    The *fast* type is the one with the lowest ``service_scale`` (ties
    break toward the higher batch ceiling, then declaration order) — the
    hardware worth paying for when a request's service time dominates its
    latency.  Requests with at least :attr:`large_threshold` nodes route
    there; everything else joins the shallowest of the remaining type
    queues (ties to declaration order), so the cheap capacity stays
    evenly loaded.

    With a single declared type every request trivially routes to it.
    """

    name = "size_affinity"

    #: Graph size (nodes) from which a request counts as large.
    large_threshold = 2048

    def __init__(self, types: Sequence[InstanceType], seed: int = 0) -> None:
        super().__init__(types, seed)
        ranked = sorted(
            range(len(self.types)),
            key=lambda i: (
                self.types[i].service_scale,
                -self.types[i].max_batch,
                i,
            ),
        )
        self.fast_target = self.types[ranked[0]].name
        self.small_targets = tuple(
            self.types[i].name for i in sorted(ranked[1:])
        ) or (self.fast_target,)

    def route(
        self, request: Request, depth_of: Callable[[str], int]
    ) -> str:
        if request.graph_size >= self.large_threshold:
            return self.fast_target
        return min(self.small_targets, key=depth_of)


class PowerOfTwoRouting(_PerTypeRouting):
    """Power-of-two-choices on queue depth across the type queues.

    Each request samples two distinct type queues with a seeded RNG and
    joins the shallower (ties to the earlier declared type) — the
    textbook randomized balancer whose max load is exponentially better
    than random placement.  With one declared type there is nothing to
    choose.
    """

    name = "po2"

    def __init__(self, types: Sequence[InstanceType], seed: int = 0) -> None:
        super().__init__(types, seed)
        self._rng = random.Random(seed)
        self._names = tuple(t.name for t in self.types)
        self._index = {name: i for i, name in enumerate(self._names)}

    def route(
        self, request: Request, depth_of: Callable[[str], int]
    ) -> str:
        if len(self._names) == 1:
            return self._names[0]
        a, b = self._rng.sample(self._names, 2)
        da, db = depth_of(a), depth_of(b)
        if da != db:
            return a if da < db else b
        return a if self._index[a] < self._index[b] else b


class TenantPinRouting(_PerTypeRouting):
    """Pin each tenant to one instance type (first-seen round-robin).

    The first tenant observed is pinned to the first declared type, the
    second to the second, and so on, wrapping around — deterministic
    because the seeded arrival stream fixes first-seen order.  Every
    request of a tenant then stays on its pinned type's queue, isolating
    tenants from each other's bursts at the fleet level.
    """

    name = "tenant_pin"

    def __init__(self, types: Sequence[InstanceType], seed: int = 0) -> None:
        super().__init__(types, seed)
        self._names = tuple(t.name for t in self.types)
        self._pins: dict[str, str] = {}

    def pin_for(self, tenant: str) -> str:
        """The type a tenant is (or would next be) pinned to."""
        pin = self._pins.get(tenant)
        if pin is None:
            pin = self._names[len(self._pins) % len(self._names)]
            self._pins[tenant] = pin
        return pin

    def route(
        self, request: Request, depth_of: Callable[[str], int]
    ) -> str:
        return self.pin_for(request.tenant)


#: Routing-policy registry (CLI / scenario ``routing`` knob).
ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    "shared_queue": SharedQueueRouting,
    "size_affinity": SizeAffinityRouting,
    "po2": PowerOfTwoRouting,
    "tenant_pin": TenantPinRouting,
}


def make_routing(
    name: str, types: Sequence[InstanceType], seed: int = 0
) -> RoutingPolicy:
    """Instantiate a registered routing policy by name over ``types``."""
    try:
        cls = ROUTING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; "
            f"choose from {sorted(ROUTING_POLICIES)}"
        ) from None
    return cls(types, seed=seed)
