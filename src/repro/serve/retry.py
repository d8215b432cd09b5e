"""Retry policies and hedged dispatch for failed or slow requests.

Fault injection (:mod:`repro.serve.faults`) makes requests *fail*; this
module decides what happens next.  Two orthogonal mechanisms:

* **Retries** — a :class:`RetryPolicy` answers, per failed attempt,
  "wait how long before re-enqueueing, or give up?":

  - ``none`` — every failure is final (the measured baseline).
  - ``backoff`` — capped-attempt exponential backoff with
    *deterministic* jitter: the delay for attempt ``k`` is
    ``base * 2^(k-1)`` scaled by a jitter factor derived from a pure
    integer hash of ``(seed, request id, attempt)``.  No RNG state, so
    retry timing never perturbs the fault or arrival streams and a
    retried run stays a deterministic function of the scenario.
  - ``deadline`` — the same backoff, but a retry that could not land
    before ``deadline_seconds`` after the request's original arrival
    gives up instead of queueing doomed work.

* **Hedging** — duplicate a still-unfinished request to a second queue
  after a fixed delay (the engine's ``hedge_seconds``, typically set
  near the observed p95); whichever copy departs first wins and the
  loser is cancelled at its own departure.  Hedging is the tail-latency
  insurance of real serving stacks: it converts "one unlucky queue"
  into "two independent draws", at the cost of duplicated work.  The
  policy object here only carries the knob; the first-wins bookkeeping
  lives in the engine's event loop where the copies actually race.

Retries compose with routing and fault-aware target health: a retried
request re-routes like a fresh arrival, so it naturally lands on a
healthy target when its original one is down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.arrivals import Request

#: Retry-policy registry names (CLI / scenario ``retry`` knob).
RETRY_POLICIES = ("none", "backoff", "deadline")


def _jitter_factor(seed: int, request_id: int, attempt: int) -> float:
    """Deterministic jitter in ``[0.5, 1.0)`` from a pure integer hash.

    splitmix64-style bit mixing: uniform enough to decorrelate retry
    storms, stateless so the policy is a pure function — two engines
    retrying the same request agree without sharing an RNG.
    """
    x = (seed * 0x9E3779B97F4A7C15 + request_id * 0xBF58476D1CE4E5B9
         + attempt * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return 0.5 + (x / 2**64) * 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """When (and whether) a failed request re-enters the queue.

    Attributes:
        mode: ``"none"`` / ``"backoff"`` / ``"deadline"``.
        max_attempts: total service attempts allowed per request
            (the first dispatch counts; ``3`` means up to two retries).
        base_seconds: first retry delay; attempt ``k`` waits
            ``base * 2^(k-1)`` before jitter.
        deadline_seconds: per-request give-up budget measured from the
            original arrival (``deadline`` mode only).
        seed: scenario seed feeding the deterministic jitter hash.
    """

    mode: str = "none"
    max_attempts: int = 3
    base_seconds: float = 0.005
    deadline_seconds: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in RETRY_POLICIES:
            raise ValueError(
                f"unknown retry mode {self.mode!r}; "
                f"choose from {RETRY_POLICIES}"
            )
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_seconds <= 0:
            raise ValueError("base_seconds must be positive")
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    @property
    def enabled(self) -> bool:
        """Whether failures can ever be retried under this policy."""
        return self.mode != "none" and self.max_attempts > 1

    def next_delay(
        self, request: Request, attempt: int, now: float
    ) -> float | None:
        """Delay before retry number ``attempt`` (``None`` = give up).

        ``attempt`` counts completed service attempts so far: after the
        first failure the engine asks with ``attempt=1``.  ``now`` is
        the failure time; ``deadline`` mode gives up when the jittered
        retry could not be *enqueued* before the request's deadline.
        """
        if self.mode == "none" or attempt >= self.max_attempts:
            return None
        delay = self.base_seconds * (2.0 ** (attempt - 1))
        delay *= _jitter_factor(self.seed, request.request_id, attempt)
        if self.mode == "deadline":
            deadline = request.arrival_time + self.deadline_seconds
            if now + delay >= deadline:
                return None
        return delay


def make_retry_policy(mode: str, **knobs) -> "RetryPolicy | None":
    """Build a retry policy from scenario knobs.

    ``"none"`` returns ``None`` so the engine can skip the retry
    machinery entirely on the compatibility path; any other mode
    forwards ``knobs`` to :class:`RetryPolicy`.
    """
    if mode == "none":
        return None
    return RetryPolicy(mode=mode, **knobs)
