"""Reference implementations that differential tests compare the library against.

Each module keeps, verbatim, a slower implementation the library once
shipped, so a test can assert the library returns the same result:

* :mod:`oracles.anneal_full` — the full-recompute simulated-annealing
  stage mapper and its ``_mapping_cost``; reference for
  ``repro.core.mapping.anneal_mapping`` and ``IncrementalCost``.
* :mod:`oracles.flit_cycle` — the cycle-stepped flit-level simulator loop
  (``CycleFlitSimulator``); reference for ``repro.noc.events.EventEngine``
  behind ``repro.noc.simulator.FlitSimulator``.
* :mod:`oracles.link_route` — the route-at-a-time link-id walk
  (``link_route``); reference for ``repro.noc.routing.link_paths``.
* :mod:`oracles.link_tuples` — the ``(a, b)`` tuple spelling of links
  (``Link``, ``LinkStats``, ``link_of`` and the local-port helpers) that
  the NoC oracles read; tests map the library's link ids through
  ``link_of`` to compare per-link loads with them.
* :mod:`oracles.p2_loop` — the per-estimator P² update loop
  (``P2Quantile.add``); reference for ``repro.obs.sketch``'s fused
  ``P2Sketch.add`` step.
* :mod:`oracles.partition_loops` — the numpy-indexed region-growing and
  refinement loops; reference for ``repro.graph.partition``.
* :mod:`oracles.schedule_tree` — the tuple-keyed static scheduler, its
  result type (energy summed over ``LinkStats`` tuple keys), its
  router-list routes and ``multicast_tree``; reference for
  ``repro.noc.schedule.StaticScheduler`` and ``repro.noc.routing``.
* :mod:`oracles.tenant_draw` — the numpy ``searchsorted`` tenant and
  size draw (``SearchsortedMix``); reference for
  ``repro.serve.arrivals.TenantMix.draw``.
* :mod:`oracles.traffic_loops` — the scalar per-router traffic legs;
  reference for ``repro.core.traffic.GNNTrafficModel.messages``.

pytest puts ``tests/`` on ``sys.path`` (``pythonpath`` in
``pyproject.toml``), so tests and benchmarks import ``oracles`` directly.
"""
