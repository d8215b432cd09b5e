"""Admission control: decide at the door instead of queueing without bound.

Open-loop overload has no natural brake — the arrival process keeps
offering work whether or not the fleet can absorb it, so queue depth and
tail latency grow without bound for as long as the burst lasts.  An
admission controller sits in front of the batching scheduler and turns
that unbounded queue into a bounded one by refusing work it cannot serve
within budget.  Two independent gates, checked in order on every arrival:

1. **Per-tenant token-bucket quotas** — each tenant owns a bucket refilled
   at ``tenant_quota_qps`` tokens per second up to a ``quota_burst`` cap
   of 16; an arrival without a token is over quota.  This is the multi-tenant
   isolation layer on top of the weighted-fair scheduler: a runaway tenant
   exhausts its own bucket instead of everyone's queue.
2. **Queue budget** — when the scheduler queue already holds
   ``queue_budget`` requests, the system is past its latency budget and
   further admissions only deepen the tail.

What happens to a refused request depends on the controller's mode:

* ``shed`` — the request is dropped on the spot (an error/503 to the
  client).  Admitted-request latency stays bounded by the queue budget.
* ``tarpit`` — the request is delayed by ``tarpit_seconds`` and retried,
  modelling backpressure (the client keeps waiting rather than erroring).
  Tarpitted time counts toward the request's latency once admitted; a
  request still refused when the simulation horizon passes is dropped.

The controller is deterministic and engine-driven: it keeps no clock of
its own, refills buckets lazily from the arrival timestamps the engine
passes in, and :meth:`AdmissionController.reset` re-arms it between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Overload-response modes (CLI / scenario ``admission`` knob).
ADMISSION_MODES = ("shed", "tarpit")

#: Refusal reasons reported in :class:`AdmissionStats.shed_by_reason`.
REASON_QUOTA = "quota"
REASON_QUEUE = "queue"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes:
        admitted: the request may enter the scheduler queue now.
        reason: why not (``"quota"`` or ``"queue"``); empty when admitted.
        retry_after_seconds: tarpit delay before the engine should retry
            the same request; ``0`` means the refusal is final (shed).
    """

    admitted: bool
    reason: str = ""
    retry_after_seconds: float = 0.0


#: The one decision every admitted request gets.
ADMIT = AdmissionDecision(admitted=True)


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/second, ``burst`` cap.

    Buckets start full, refill lazily at read time from the elapsed
    simulated seconds, and never go negative — the standard shaping
    primitive, driven entirely by the timestamps the caller passes in.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must allow at least one token, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self.reset()

    def reset(self) -> None:
        self._tokens = self.burst
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def peek(self, now: float) -> float:
        """Tokens available at ``now`` (refills, does not consume)."""
        self._refill(now)
        return self._tokens

    def try_take(self, now: float) -> bool:
        """Consume one token if available at ``now``."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class AdmissionStats:
    """Admission-side tallies of one engine run.

    ``offered`` counts distinct requests presented to the controller;
    ``tarpitted`` counts delay events, so one request bounced twice
    contributes two.  ``shed`` counts final drops only (including
    tarpitted requests that ran out the simulation horizon).
    """

    mode: str
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    tarpitted: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    per_tenant_shed: dict[str, int] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests finally dropped."""
        return self.shed / self.offered if self.offered else 0.0

    def render(self) -> str:
        """One-line summary (what the CLI report appends)."""
        parts = [
            f"admission[{self.mode}]: admitted {self.admitted}/{self.offered}",
            f"shed {self.shed} ({self.shed_rate:.2%})",
        ]
        if self.tarpitted:
            parts.append(f"tarpit delays {self.tarpitted}")
        if self.shed_by_reason:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.shed_by_reason.items())
            )
            parts.append(f"by reason: {reasons}")
        return "   ".join(parts)


class AdmissionController:
    """Token-bucket quotas + queue-budget load shedding, shed or tarpit.

    Args:
        mode: overload response — ``"shed"`` (drop) or ``"tarpit"``
            (delay and retry).
        queue_budget: scheduler queue depth at which further arrivals are
            refused; ``0`` disables the queue gate.
        tenant_quota_qps: per-tenant sustained admission rate;
            ``0`` disables quotas.
        tarpit_seconds: retry delay applied per refusal in tarpit mode.
    """

    #: Token-bucket capacity (instantaneous burst allowance) of each
    #: tenant's quota when quotas are active.
    quota_burst = 16.0

    def __init__(
        self,
        mode: str = "shed",
        queue_budget: int = 64,
        tenant_quota_qps: float = 0.0,
        tarpit_seconds: float = 0.02,
    ) -> None:
        if mode not in ADMISSION_MODES:
            raise ValueError(
                f"admission mode must be one of {ADMISSION_MODES}, got {mode!r}"
            )
        if queue_budget < 0:
            raise ValueError(f"queue_budget must be >= 0, got {queue_budget}")
        if tenant_quota_qps < 0:
            raise ValueError("tenant_quota_qps must be >= 0")
        if tarpit_seconds <= 0:
            raise ValueError("tarpit_seconds must be positive")
        self.mode = mode
        self.queue_budget = queue_budget
        self.tenant_quota_qps = tenant_quota_qps
        self.tarpit_seconds = tarpit_seconds
        self.reset()

    def reset(self) -> None:
        """Fresh buckets for a fresh run (the engine calls this)."""
        self._buckets: dict[str, TokenBucket] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                rate=self.tenant_quota_qps, burst=self.quota_burst
            )
        return bucket

    def _refuse(self, reason: str) -> AdmissionDecision:
        return AdmissionDecision(
            admitted=False,
            reason=reason,
            retry_after_seconds=(
                self.tarpit_seconds if self.mode == "tarpit" else 0.0
            ),
        )

    def admit(
        self,
        tenant: str,
        now: float,
        queue_depth: int,
        capacity_fraction: float = 1.0,
    ) -> AdmissionDecision:
        """Gate one arrival: quota first, then the queue budget.

        Order matters: an over-quota tenant is refused before it can
        consume shared queue budget, so quota enforcement is independent
        of how congested the system happens to be.

        ``capacity_fraction`` is the degraded-mode hook: when faults
        have taken part of the fleet down, the engine passes the healthy
        fraction of declared capacity and the queue budget tightens
        proportionally (never below one slot) — queueing against
        capacity that is not there only deepens the tail.
        """
        if self.tenant_quota_qps > 0 and not self._bucket(tenant).try_take(now):
            return self._refuse(REASON_QUOTA)
        if self.queue_budget > 0:
            budget = self.queue_budget
            if capacity_fraction < 1.0:
                budget = max(1, int(budget * max(capacity_fraction, 0.0)))
            if queue_depth >= budget:
                return self._refuse(REASON_QUEUE)
        return ADMIT
