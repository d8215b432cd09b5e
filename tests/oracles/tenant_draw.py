"""Reference copy of the numpy ``searchsorted`` tenant and size draw.

``TenantMix`` as ``repro.serve.arrivals`` shipped it before its cumulative
tables became Python float lists searched with ``bisect_right``: numpy
``cumsum`` tables normalised by their last entry, and one scalar
``np.searchsorted(..., side="right")`` per draw.  The table construction
and ``draw`` body are kept verbatim (only ``self`` became the wrapped
mix's fields) so the differential test in ``tests/test_serve_arrivals.py``
can assert that the library draws the same tenant and size for the same
random numbers.
"""

from __future__ import annotations

import numpy as np


class SearchsortedMix:
    """A :class:`~repro.serve.arrivals.TenantMix` drawn the old way."""

    def __init__(self, mix) -> None:
        self.tenants = mix.tenants
        self.graph_sizes = mix.graph_sizes
        self.size_weights = mix.size_weights
        # Cumulative draw tables, built once: draw() runs once per request
        # and must not re-normalize weights on the million-request path.
        tenant_cum = np.cumsum([w for _, w in self.tenants])
        self._tenant_cum = tenant_cum / tenant_cum[-1]
        if self.size_weights is not None:
            size_cum = np.cumsum(self.size_weights)
            self._size_cum = size_cum / size_cum[-1]
        else:
            self._size_cum = None

    def draw(self, rng: np.random.Generator) -> tuple[str, int]:
        """One seeded ``(tenant, graph_size)`` draw."""
        tenant_cum: np.ndarray = self._tenant_cum  # type: ignore[attr-defined]
        tenant = self.tenants[int(np.searchsorted(tenant_cum, rng.random(), side="right"))][0]
        size_cum: np.ndarray | None = self._size_cum  # type: ignore[attr-defined]
        if size_cum is None:
            size = int(self.graph_sizes[int(rng.integers(len(self.graph_sizes)))])
        else:
            size = int(
                self.graph_sizes[int(np.searchsorted(size_cum, rng.random(), side="right"))]
            )
        return tenant, size
