"""Reference copy of the per-route link-id walk.

``repro.noc.schedule.StaticScheduler.simulate`` used to call
``link_route`` once per destination, turning each segment of the stride
walk ``repro.noc.routing._walk`` into a ``range`` of link ids.  The
library now builds a whole block of routes at once in numpy
(``repro.noc.routing.link_paths``).  ``link_route`` is kept here
verbatim, still reading ``_walk``, the single-route walk
``dimension_order_route`` keeps using, so the differential tests in
``tests/test_noc_routing_orders.py`` compare the batched routes against
a route-at-a-time reference.
"""

from __future__ import annotations

from repro.noc.routing import RoutePlan, _walk
from repro.noc.topology import PORTS, link_id


def link_route(plan: RoutePlan, src: int, dst: int) -> list[int]:
    """Link ids from ``src`` to ``dst`` (see :mod:`repro.noc.topology`)."""
    route: list[int] = []
    for start, stop, step, port in _walk(plan, src, dst):
        route.extend(range(link_id(start, port), link_id(stop, port), step * PORTS))
    return route
