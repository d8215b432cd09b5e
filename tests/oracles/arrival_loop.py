"""Reference copy of the per-request arrival loop.

``repro.serve.arrivals`` as it shipped while every request drew its size
index with ``Generator.integers`` and its arrival times came from a
per-kind ``_arrival_times`` generator: the ``generate`` loop, the three
open-loop ``_arrival_times`` bodies, ``TenantMix.draw`` and the closed
loop's ``_make`` / ``_think``.  The bodies are kept verbatim (only
``self`` became the wrapped process's or mix's fields) so the
differential tests in ``tests/test_serve_arrivals.py`` can assert that
the library draws the same stream, value for value.

``mix`` may be any object with a ``draw(rng)`` method (for example
:class:`oracles.tenant_draw.SearchsortedMix`); it defaults to the wrapped
process's own mix, drawn the old way by :func:`draw`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

import numpy as np

from repro.serve.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    Request,
    TraceArrivals,
)
from repro.utils.rng import rng_from_seed


def draw(mix, rng: np.random.Generator) -> tuple[str, int]:
    """One seeded ``(tenant, graph_size)`` draw."""
    tenant = mix._names[bisect_right(mix._tenant_cum, rng.random())]  # type: ignore[attr-defined]
    size_cum: list[float] | None = mix._size_cum  # type: ignore[attr-defined]
    if size_cum is None:
        size = int(mix.graph_sizes[int(rng.integers(len(mix.graph_sizes)))])
    else:
        size = int(mix.graph_sizes[bisect_right(size_cum, rng.random())])
    return tenant, size


class _OldMix:
    """A library mix whose ``draw`` is the reference :func:`draw`."""

    def __init__(self, mix) -> None:
        self._mix = mix

    def draw(self, rng: np.random.Generator) -> tuple[str, int]:
        return draw(self._mix, rng)


def _poisson_times(self, rng: np.random.Generator, horizon: float) -> Iterator[float]:
    t = 0.0
    while True:
        t += rng.exponential(1.0 / self.rate_qps)
        if t >= horizon:
            return
        yield t


def _mmpp_times(self, rng: np.random.Generator, horizon: float) -> Iterator[float]:
    t = 0.0
    burst = False
    state_end = rng.exponential(self.mean_quiet_seconds)
    while t < horizon:
        rate = self.burst_rate if burst else self.quiet_rate
        gap = rng.exponential(1.0 / rate)
        if t + gap >= state_end:
            # The exponential gap is memoryless, so discarding the
            # partial draw at a state switch keeps the process exact.
            t = state_end
            burst = not burst
            state_end = t + rng.exponential(
                self.mean_burst_seconds if burst else self.mean_quiet_seconds
            )
            continue
        t += gap
        if t >= horizon:
            return
        yield t


def _diurnal_times(self, rng: np.random.Generator, horizon: float) -> Iterator[float]:
    peak = self.rate_qps * (1.0 + self.amplitude)
    t = 0.0
    while True:
        t += rng.exponential(1.0 / peak)
        if t >= horizon:
            return
        if rng.uniform() * peak < self.rate_at(t):
            yield t


_TIMES = {
    PoissonArrivals: _poisson_times,
    MMPPArrivals: _mmpp_times,
    DiurnalArrivals: _diurnal_times,
}


def generate(process, horizon_seconds: float, mix=None) -> list[Request]:
    """``process.generate(horizon_seconds)`` drawn the old way."""
    if isinstance(process, TraceArrivals):
        return [r for r in process.requests if r.arrival_time < horizon_seconds]
    mix = mix if mix is not None else _OldMix(process.mix)
    arrival_times = _TIMES[type(process)]
    rng = rng_from_seed(process.seed)
    out: list[Request] = []
    for t in arrival_times(process, rng, horizon_seconds):
        tenant, size = mix.draw(rng)
        out.append(
            Request(
                tenant=tenant,
                graph_size=size,
                arrival_time=t,
                request_id=len(out),
            )
        )
    return out


class ClosedLoop:
    """``ClosedLoopPool``'s request and think-time draws, the old way."""

    def __init__(self, num_clients, think_seconds, mix, seed: int = 0, draw_mix=None) -> None:
        self.num_clients = num_clients
        self.think_seconds = think_seconds
        self.mix = draw_mix if draw_mix is not None else _OldMix(mix)
        self._rng = rng_from_seed(seed)
        self._next_id = 0

    def _make(self, arrival_time: float) -> Request:
        tenant, size = self.mix.draw(self._rng)
        request = Request(
            tenant=tenant,
            graph_size=size,
            arrival_time=arrival_time,
            request_id=self._next_id,
        )
        self._next_id += 1
        return request

    def _think(self) -> float:
        if self.think_seconds == 0:
            return 0.0
        return float(self._rng.exponential(self.think_seconds))

    def initial_requests(self) -> list[Request]:
        """Each client's first request, staggered by one think-time draw."""
        return [self._make(self._think()) for _ in range(self.num_clients)]

    def next_request(self, completion_time: float) -> Request:
        """The follow-up request owed after a completion at ``completion_time``."""
        return self._make(completion_time + self._think())
