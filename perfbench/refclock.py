"""Host time scaled to a fixed reference speed.

The benchmark host is a couple of virtual CPUs of a shared machine, and
the speed of one CPU drifts by up to ~60% over seconds to minutes as
other tenants' load comes and goes: identical passes of the same process
take 1.5 s or 2.5 s of *user* time.  A raw pass time therefore says as
much about the neighbours as about the code.

``RefClock`` measures that drift where it happens.  While it runs, a
``SIGALRM`` every ``INTERVAL_S`` runs a small fixed kernel (a dict/int
loop and a numpy sort) on the same CPU, interleaved with the measured
code, and times it.  Each stretch of measured code between two kernel
runs is scaled by ``NOMINAL_KERNEL_S / (the next kernel run's time)``, so
``scaled_s`` is the time the code would take on a host where the kernel
takes exactly ``NOMINAL_KERNEL_S``.  A change to the measured code moves
it in proportion; host drift, which slows kernel and code alike, mostly
does not.  Kernel runs are excluded from the measured time.

Usage::

    with RefClock() as clock:
        work()
    clock.scaled_s, clock.raw_s, clock.net_s
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between kernel runs (the kernel costs ~5% of that).
INTERVAL_S = 0.02
#: Kernel time that defines the reference speed: ``scaled_s`` is in
#: seconds on a host where one kernel run takes exactly this long.
NOMINAL_KERNEL_S = 1e-3

_SORT_DATA = np.random.default_rng(0).random(1 << 16)
_KEYS = range(4096)


def kernel() -> None:
    """The fixed reference work: never change it, or every baseline moves."""
    table = {}
    total = 0
    for i in _KEYS:
        table[i & 255] = i
        total += i
    np.sort(_SORT_DATA)


class RefClock:
    """Context manager timing a block at the reference speed."""

    def __init__(self) -> None:
        self._marks: list[tuple[float, float]] = []
        self._busy = False
        self.start = self.end = 0.0

    def _tick(self, signum: int | None = None, frame: object = None) -> None:
        if self._busy:  # a late signal during a kernel run: skip it
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self._marks.append((start, time.perf_counter()))
        self._busy = False

    def __enter__(self) -> "RefClock":
        self._marks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()  # scales the stretch after the last timed kernel run

    @property
    def raw_s(self) -> float:
        """Host seconds of the block, kernel runs included."""
        return self.end - self.start

    @property
    def net_s(self) -> float:
        """Host seconds of the block without the kernel runs inside it."""
        inside = sum(e - s for s, e in self._marks if e <= self.end)
        return self.raw_s - inside

    @property
    def scaled_s(self) -> float:
        """Seconds of the block at the reference speed, kernel runs excluded."""
        total, previous = 0.0, self.start
        for start, end in self._marks:
            total += (min(start, self.end) - previous) / (end - start)
            previous = end
        return total * NOMINAL_KERNEL_S
