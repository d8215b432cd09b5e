"""Seeded arrival processes for multi-tenant GNN inference traffic.

The serving engine is open-loop by default: requests arrive according to a
stochastic process regardless of how the system is doing, which is what
exposes queueing and tail latency.  Every process here is deterministic
from its seed and emits a common stream of :class:`Request` records:

* :class:`PoissonArrivals` — memoryless baseline at a nominal QPS.
* :class:`MMPPArrivals` — bursty traffic: a two-state Markov-modulated
  Poisson process alternating quiet and burst phases whose *time-average*
  rate still matches the nominal QPS.
* :class:`DiurnalArrivals` — sine-modulated rate (a compressed day/night
  cycle) generated by Lewis–Shedler thinning.
* :class:`TraceArrivals` — replay of a recorded stream; round-trips
  through CSV via :func:`save_trace` / :func:`load_trace`.

:class:`ClosedLoopPool` is the complementary closed-loop client model: a
fixed population of clients that only issue the next request after the
previous response returns (plus exponential think time), bounding the
number of requests in flight.

Open-loop streams and closed-loop pools draw through one
:class:`StreamRng`, which returns numpy's values for the seed without
numpy's per-call overhead on the uniform size draw.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.utils.rng import rng_from_seed


class _RequestFields(NamedTuple):
    tenant: str
    graph_size: int
    arrival_time: float
    request_id: int = 0


class Request(_RequestFields):
    """One inference request: who sent it, how big, and when it arrived.

    An immutable tuple of ``(tenant, graph_size, arrival_time,
    request_id)`` with named fields and no per-instance dictionary, so a
    10^5-request stream costs one small tuple per request.  Calling
    ``Request(...)`` (or ``_make`` / ``_replace``) validates the fields.
    :meth:`ArrivalProcess.generate` builds its requests with the
    unchecked ``tuple.__new__(Request, fields)`` instead: the
    :class:`TenantMix` it draws from has already validated every tenant
    name and graph size, and its arrival times are ``>= 0`` by
    construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        tenant: str,
        graph_size: int,
        arrival_time: float,
        request_id: int = 0,
    ) -> "Request":
        if not tenant:
            raise ValueError("request needs a tenant name")
        if graph_size < 1:
            raise ValueError(f"graph_size must be >= 1, got {graph_size}")
        if not arrival_time >= 0:
            raise ValueError(f"arrival_time must be >= 0, got {arrival_time}")
        return tuple.__new__(cls, (tenant, graph_size, arrival_time, request_id))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Request":
        # The tuple default builds without checks; route it (and
        # ``_replace``, which calls it) through the checked constructor.
        return cls(*iterable)


@dataclass(frozen=True)
class TenantMix:
    """Who sends traffic and what their input graphs look like.

    Attributes:
        tenants: ``(name, weight)`` pairs; each request's tenant is drawn
            with probability proportional to weight.
        graph_sizes: the discrete population of request graph sizes
            (nodes).  Kept discrete on purpose: the scheduler's service
            model memoizes by batch shape, and a small size alphabet keeps
            that memo tight even across millions of requests.
        size_weights: optional draw weights per size (uniform if omitted).
    """

    tenants: tuple[tuple[str, float], ...] = (("tenant-0", 1.0),)
    graph_sizes: tuple[int, ...] = (256, 1024, 4096)
    size_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one tenant")
        names = [name for name, _ in self.tenants]
        if not all(names):
            raise ValueError(f"tenant names must be non-empty, got {names}")
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate tenant names in {names}")
        if any(w <= 0 for _, w in self.tenants):
            raise ValueError("tenant weights must be positive")
        if not self.graph_sizes or any(s < 1 for s in self.graph_sizes):
            raise ValueError("graph sizes must be positive")
        if self.size_weights is not None:
            if len(self.size_weights) != len(self.graph_sizes):
                raise ValueError("size_weights must match graph_sizes")
            if any(w <= 0 for w in self.size_weights):
                raise ValueError("size weights must be positive")
        # Cumulative draw tables, built once: draw() runs once per request
        # and must not re-normalize weights on the million-request path.
        # They are numpy's normalized cumsums as Python floats, so a
        # scalar bisect finds the cell a numpy searchsorted would.
        tenant_cum = np.cumsum([w for _, w in self.tenants])
        object.__setattr__(
            self, "_tenant_cum", (tenant_cum / tenant_cum[-1]).tolist()
        )
        object.__setattr__(self, "_names", self.tenant_names)
        object.__setattr__(self, "_sizes", tuple(int(s) for s in self.graph_sizes))
        if self.size_weights is not None:
            size_cum = np.cumsum(self.size_weights)
            object.__setattr__(self, "_size_cum", (size_cum / size_cum[-1]).tolist())
        else:
            object.__setattr__(self, "_size_cum", None)

    @classmethod
    def uniform(cls, num_tenants: int = 1) -> "TenantMix":
        """Equal-weight tenants named ``tenant-0 .. tenant-{n-1}``, with
        the default graph sizes."""
        if num_tenants < 1:
            raise ValueError("need at least one tenant")
        return cls(
            tenants=tuple((f"tenant-{i}", 1.0) for i in range(num_tenants))
        )

    @property
    def tenant_names(self) -> tuple[str, ...]:
        """Tenant names in declaration order."""
        return tuple(name for name, _ in self.tenants)

    @property
    def weights(self) -> dict[str, float]:
        """Name-to-weight map (what the weighted-fair scheduler consumes)."""
        return dict(self.tenants)

    def draw(self, rng: np.random.Generator | StreamRng) -> tuple[str, int]:
        """One seeded ``(tenant, graph_size)`` draw.

        ``rng`` is anything with ``random()`` and ``integers(n)``: a numpy
        ``Generator``, or the :class:`StreamRng` an arrival stream draws
        from (which returns the same values).
        """
        tenant = self._names[bisect_right(self._tenant_cum, rng.random())]  # type: ignore[attr-defined]
        size_cum: list[float] | None = self._size_cum  # type: ignore[attr-defined]
        sizes: tuple[int, ...] = self._sizes  # type: ignore[attr-defined]
        if size_cum is None:
            return tenant, sizes[rng.integers(len(sizes))]
        return tenant, sizes[bisect_right(size_cum, rng.random())]


class StreamRng:
    """The seeded draws of one request stream.

    ``random`` and ``exponential`` are the generator's own bound methods.
    :meth:`integers` returns what ``Generator.integers(n)`` returns for
    PCG64 and consumes the same bits, without numpy's per-call argument
    handling: Lemire's multiply-and-reject on 32-bit words, where a
    32-bit word is the low half of a fresh 64-bit raw word and the high
    half is cached for the next 32-bit draw.  ``random`` and
    ``exponential`` consume whole 64-bit words and never touch that
    cache, so it can live here.  Once this object has drawn an integer
    the generator's own cache is stale: every draw of the stream goes
    through this object.
    """

    __slots__ = ("random", "exponential", "_raw", "_half")

    def __init__(self, seed: int | np.random.Generator) -> None:
        rng = rng_from_seed(seed)
        state = rng.bit_generator.state
        self.random = rng.random
        self.exponential = rng.exponential
        self._raw = rng.bit_generator.random_raw
        # The cached upper half of the last raw word, or -1 when empty.
        self._half: int = state["uinteger"] if state["has_uint32"] else -1

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._raw()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """A uniform index in ``[0, n)`` for ``1 <= n <= 2**32``, drawn as
        ``Generator.integers(n)`` draws it (``n == 1`` consumes nothing)."""
        if n == 1:
            return 0
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            # Lemire's rejection: drop the low products that would bias
            # the result, drawing the next 32-bit word each time.
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32


class ArrivalProcess:
    """Base class: seeded open-loop arrival stream at a nominal QPS."""

    def __init__(
        self,
        rate_qps: float,
        mix: TenantMix | None = None,
        seed: int = 0,
    ) -> None:
        if not 0 < rate_qps < math.inf:
            raise ValueError(f"rate must be finite and positive, got {rate_qps}")
        self.rate_qps = rate_qps
        self.mix = mix or TenantMix()
        self.seed = seed

    def generate(self, horizon_seconds: float) -> list[Request]:
        """All requests arriving in ``[0, horizon_seconds)``, in time order.

        Requests are built unchecked (see :class:`Request`): the mix
        validated its tenants and sizes when it was constructed, and
        arrival times start at 0 and only grow.
        """
        if not 0 < horizon_seconds < math.inf:  # NaN fails it too
            raise ValueError(f"horizon must be finite and positive: {horizon_seconds}")
        rng = StreamRng(self.seed)
        draw = self.mix.draw
        new = tuple.__new__
        out: list[Request] = []
        append = out.append
        for t in self._arrival_times(rng, horizon_seconds):
            tenant, size = draw(rng)
            append(new(Request, (tenant, size, t, len(out))))
        return out

    def _arrival_times(
        self, rng: StreamRng, horizon: float
    ) -> Iterator[float]:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival gaps at ``rate_qps``."""

    def _arrival_times(
        self, rng: StreamRng, horizon: float
    ) -> Iterator[float]:
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.rate_qps)
            if t >= horizon:
                return
            yield t


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates a quiet state and a burst state with
    exponential sojourn times; the burst rate is :attr:`burst_ratio` times
    the quiet rate, with both chosen so the long-run average equals the
    nominal ``rate_qps``::

        avg = (r_lo * T_lo + r_hi * T_hi) / (T_lo + T_hi)   with r_hi = k * r_lo
    """

    #: Burst-state rate over quiet-state rate.
    burst_ratio = 8.0

    #: Mean sojourn in the quiet and the burst state (seconds).
    mean_quiet_seconds = 1.0
    mean_burst_seconds = 0.25

    def __init__(
        self,
        rate_qps: float,
        mix: TenantMix | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(rate_qps, mix, seed)
        quiet, burst = self.mean_quiet_seconds, self.mean_burst_seconds
        total = quiet + burst
        self.quiet_rate = rate_qps * total / (quiet + self.burst_ratio * burst)
        self.burst_rate = self.burst_ratio * self.quiet_rate

    def _arrival_times(
        self, rng: StreamRng, horizon: float
    ) -> Iterator[float]:
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


class DiurnalArrivals(ArrivalProcess):
    """Sine-modulated rate: ``rate * (1 + amplitude * sin(2 pi t / P))``.

    Generated by Lewis–Shedler thinning against the peak rate, so the
    instantaneous intensity tracks the modulation exactly.  The period is
    a compressed "day" — seconds-scale by default so short simulations
    still see both the peak and the trough.
    """

    #: Relative swing of the rate around its mean: the peak is 1.5x the
    #: nominal rate and the trough 0.5x.
    amplitude = 0.5

    def __init__(
        self,
        rate_qps: float,
        mix: TenantMix | None = None,
        seed: int = 0,
        period_seconds: float = 60.0,
    ) -> None:
        super().__init__(rate_qps, mix, seed)
        if period_seconds <= 0:
            raise ValueError("period must be positive")
        self.period_seconds = period_seconds

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival intensity at time ``t``."""
        return self.rate_qps * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_seconds)
        )

    def _arrival_times(
        self, rng: StreamRng, horizon: float
    ) -> Iterator[float]:
        peak = self.rate_qps * (1.0 + self.amplitude)
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak)
            if t >= horizon:
                return
            if rng.random() * peak < self.rate_at(t):
                yield t


class TraceArrivals(ArrivalProcess):
    """Replay a recorded request stream (clipped to the horizon).

    Request ids must be distinct: the engine keys per-request state
    (hedged copies, retries, terminal outcomes) by id.
    """

    def __init__(self, requests: Sequence[Request]) -> None:
        if not requests:
            raise ValueError("trace must contain at least one request")
        seen: set[int] = set()
        for r in requests:
            if r.request_id in seen:
                raise ValueError(f"duplicate request id {r.request_id} in trace")
            seen.add(r.request_id)
        ordered = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        span = max(r.arrival_time for r in ordered)
        # Nominal rate of the trace itself (requests per covered second).
        super().__init__(rate_qps=len(ordered) / max(span, 1e-12))
        self.requests = tuple(ordered)

    def generate(self, horizon_seconds: float) -> list[Request]:
        """The recorded requests arriving inside ``[0, horizon_seconds)``."""
        if not 0 < horizon_seconds < math.inf:  # NaN fails it too
            raise ValueError(f"horizon must be finite and positive: {horizon_seconds}")
        return [r for r in self.requests if r.arrival_time < horizon_seconds]


class ClosedLoopPool:
    """A fixed client population issuing one request at a time each.

    Clients are statistically identical: a completion immediately owes the
    pool one think-time draw and one new request, so the number in flight
    never exceeds ``num_clients``.  The serving engine drives this via
    :meth:`initial_requests` and :meth:`next_request`.
    """

    def __init__(
        self,
        num_clients: int = 4,
        think_seconds: float = 0.05,
        mix: TenantMix | None = None,
        seed: int = 0,
    ) -> None:
        if num_clients < 1:
            raise ValueError(f"need at least one client, got {num_clients}")
        if think_seconds < 0:
            raise ValueError("think time must be non-negative")
        self.num_clients = num_clients
        self.think_seconds = think_seconds
        self.mix = mix or TenantMix()
        self._rng = StreamRng(seed)
        self._next_id = 0

    def _make(self, arrival_time: float) -> Request:
        tenant, size = self.mix.draw(self._rng)
        request = Request(tenant, size, arrival_time, self._next_id)
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


#: Open-loop arrival-model registry (CLI / scenario `arrival` knob).
ARRIVALS: dict[str, type[ArrivalProcess]] = {
    "poisson": PoissonArrivals,
    "mmpp": MMPPArrivals,
    "diurnal": DiurnalArrivals,
}


def make_arrivals(
    kind: str,
    rate_qps: float,
    mix: TenantMix | None = None,
    seed: int = 0,
    **kwargs: float,
) -> ArrivalProcess:
    """Instantiate a registered arrival model by name.

    Extra keyword arguments forward to the model's constructor; the one
    such knob is ``period_seconds`` for ``diurnal``.
    """
    try:
        cls = ARRIVALS[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival model {kind!r}; choose from {sorted(ARRIVALS)}"
        ) from None
    return cls(rate_qps, mix=mix, seed=seed, **kwargs)


def save_trace(requests: Sequence[Request], path: str | Path) -> Path:
    """Write a request stream as CSV (the replay/exchange format)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_id", "tenant", "graph_size", "arrival_time"])
        for r in requests:
            writer.writerow([r.request_id, r.tenant, r.graph_size, repr(r.arrival_time)])
    return path


def load_trace(path: str | Path) -> TraceArrivals:
    """Read a CSV trace back into a replayable arrival process."""
    requests: list[Request] = []
    with Path(path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            requests.append(
                Request(
                    tenant=row["tenant"],
                    graph_size=int(row["graph_size"]),
                    arrival_time=float(row["arrival_time"]),
                    request_id=int(row["request_id"]),
                )
            )
    return TraceArrivals(requests)
