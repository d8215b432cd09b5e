"""Event-driven engine for the flit-level wormhole simulator.

Runs the model of :mod:`repro.noc.simulator` as a priority queue of link
events instead of a cycle-stepped loop, so simulation cost scales with the
number of *link grants* (one per packet per hop) instead of
``elapsed cycles x pending packets x hops``.  On sparse-in-time traffic
(wide injection windows) this is orders of magnitude faster, which is what
makes large-mesh campaign sweeps affordable.

Links are dense ids (:mod:`repro.noc.topology`): ownership and waiters
are keyed by id, and per-link flits accumulate in one flat per-id list,
the same layout as the static scheduler's loads.

The engine is **bit-identical** to the cycle-stepped reference kept in
``tests/oracles/flit_cycle.py``.  The reference executes three phases per
cycle; each maps onto an event:

* *Phase 1 (acquisition)* — a packet becomes a contender for hop ``i``
  exactly ``hop_cycles`` after its head flit crossed hop ``i-1`` (or at
  ``inject_cycle`` for hop 0).  The engine schedules that instant as an
  ``ARRIVE`` event.
* *Phase 2 (release)* — the reference deletes link ownership in the same
  cycle the tail flit crosses, but phase 1 of that cycle has already run,
  so the link is only acquirable from the *next* cycle.  The engine
  schedules a ``FREE`` event at ``tail + 1``.
* *Arbitration* — each cycle the reference grants a free link to the
  lowest-internal-id contender whose head is ready.  The engine ingests
  every ``ARRIVE``/``FREE`` event of one cycle before deciding any grant,
  then picks the minimum packet id among the link's waiters, which is the
  same winner (contenders only ever enter the wait set at their ready
  cycle, so every queued waiter is eligible).

Within one packet the per-flit schedule needs no events at all: with one
flit per cycle on an owned link, flit ``f`` crosses hop ``i`` at
``t(i, f) = max(t(i-1, f) + hop_cycles, t(i, f-1) + 1)``, which collapses
to two per-hop recurrences (``head`` is the grant cycle)::

    head_i = grant cycle                    # >= head_{i-1} + hop_cycles
    tail_i = max(head_i + flits - 1, tail_{i-1} + hop_cycles)

so the engine materializes neither cycles nor per-flit state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.noc.schedule import NoCConfig

#: Event kinds; ``FREE`` and ``ARRIVE`` at the same cycle are ingested
#: together before any grant, so their relative heap order is irrelevant.
_ARRIVE = 0
_FREE = 1


@dataclass(frozen=True)
class ExpandedPacket:
    """One unicast packet after multicast expansion.

    ``key`` is the caller-facing identity ``(msg_id, dest)`` — results are
    reported under it, never under internal packet ids.  ``route`` is the
    packet's dense link ids (:mod:`repro.noc.topology`) in path order.
    """

    key: tuple[int, int]
    inject_cycle: int
    route: tuple[int, ...]
    flits: int


@dataclass
class _Flight:
    """Progress of one packet: the next hop to acquire and the head/tail
    crossing cycles on the most recently granted hop."""

    hop: int = 0
    head: int = -1
    tail: int = -1


class EventEngine:
    """Priority-queue simulation of the deterministic wormhole model."""

    def __init__(self, config: NoCConfig) -> None:
        self.config = config

    def run(
        self,
        packets: list[ExpandedPacket],
        loads: list[int],
        max_cycles: int,
    ) -> dict[tuple[int, int], int]:
        """Simulate ``packets`` and return per-``(msg_id, dest)`` finish cycles.

        ``loads[link_id]`` accumulates per-link flit counts (identical to
        the cycle-stepped reference's).  Raises :class:`RuntimeError` when
        delivery needs ``max_cycles`` cycles or more, mirroring the
        reference watchdog.
        """
        hop_cycles = self.config.hop_cycles
        flights = [_Flight() for _ in packets]
        events: list[tuple[int, int, object]] = []
        for pid, pkt in enumerate(packets):
            events.append((pkt.inject_cycle, _ARRIVE, pid))
        heapq.heapify(events)

        busy: set[int] = set()
        waiters: dict[int, list[int]] = {}
        finish: dict[tuple[int, int], int] = {}

        while events:
            now = events[0][0]
            touched: list[int] = []
            # Ingest every event of this cycle before any grant decision —
            # this is what preserves the reference's same-cycle arbitration.
            while events and events[0][0] == now:
                _, kind, payload = heapq.heappop(events)
                if kind == _FREE:
                    busy.discard(payload)  # type: ignore[arg-type]
                    touched.append(payload)  # type: ignore[arg-type]
                else:
                    pid = payload  # type: ignore[assignment]
                    link = packets[pid].route[flights[pid].hop]
                    heapq.heappush(waiters.setdefault(link, []), pid)
                    touched.append(link)
            for link in touched:
                queue = waiters.get(link)
                if not queue or link in busy:
                    continue
                pid = heapq.heappop(queue)
                pkt = packets[pid]
                flight = flights[pid]
                busy.add(link)
                tail = now + pkt.flits - 1
                if flight.hop > 0:
                    tail = max(tail, flight.tail + hop_cycles)
                flight.head = now
                flight.tail = tail
                loads[link] += pkt.flits
                heapq.heappush(events, (tail + 1, _FREE, link))
                flight.hop += 1
                if flight.hop < len(pkt.route):
                    heapq.heappush(events, (now + hop_cycles, _ARRIVE, pid))
                else:
                    finish[pkt.key] = tail + hop_cycles

        # Watchdog: the cycle-stepped reference executes cycles
        # [0, max_cycles) and raises on entering cycle ``max_cycles`` with
        # packets still in flight, i.e. whenever any tail crosses its last
        # link at or after ``max_cycles``.
        late = sum(1 for flight in flights if flight.tail >= max_cycles)
        if late:
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles with "
                f"{late} packets in flight"
            )
        return finish
