"""Host-speed sampling for the timed loop.

The benchmark runs on a few virtual cores of a shared host, whose speed
drifts by tens of percent over tens of seconds as other tenants come and go.
The guest cannot see this: CPU time tracks wall time exactly, the cores just
run slower.  Two runs of the same code at different moments therefore differ
by more than a regression the benchmark should catch.

``HostSpeed`` measures the drift while the ops run.  A ``SIGALRM`` interval
timer interrupts the main thread every ``INTERVAL_S`` and times a fixed
pure-Python loop (about a millisecond); no thread or process is started.  For
each op the loop's median time over the samples taken during the op (and the
two taken just before it) says how fast the host ran, and the op's time is
scaled to a host on which the loop takes ``REFERENCE_S``.  The handler's own
time is taken out of the op's time first.  Set-up, which runs in its own
short-lived interpreters, times the loop just before and just after instead
(``probe_median``).  Two commits measured on the same machine share the
reference, so their scaled times compare; a change to the program moves the
scaled times just as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

INTERVAL_S = 0.05
PROBE_LOOPS = 10_000
REFERENCE_S = 1.0e-3  # the probe's time on the reference host
LOOKBACK = 2  # samples taken before an op that also describe it
WARMUP = 5


def probe() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return s


def probe_median(count: int = WARMUP) -> float:
    """The probe's median time over ``count`` back-to-back runs."""
    times = []
    for _ in range(count):
        t0 = clock()
        probe()
        times.append(clock() - t0)
    return statistics.median(times)


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the
    reference host speed."""
    return seconds * REFERENCE_S / probe_s


class HostSpeed:
    """Samples the probe on a timer while active.  ``mark()`` before and
    after an op, then ``scaled(before, after)`` gives the op's time at the
    reference speed and ``raw(before, after)`` its time without the handler."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler
        self._old = None

    def _sample(self, *_: object) -> None:
        t0 = clock()
        probe()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent += clock() - t0

    def __enter__(self) -> HostSpeed:
        for _ in range(WARMUP):
            self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[float, float, int]:
        return clock(), self.spent, len(self.samples)

    def raw(self, before: tuple, after: tuple) -> float:
        return (after[0] - before[0]) - (after[1] - before[1])

    def probe_s(self, before: tuple, after: tuple) -> float:
        lo = max(0, before[2] - LOOKBACK)
        return statistics.median(self.samples[lo : max(after[2], lo + 1)])

    def scaled(self, before: tuple, after: tuple) -> float:
        return scale(self.raw(before, after), self.probe_s(before, after))
