"""The machine's current speed, read from a fixed loop over stdlib Fractions.

On a shared machine other tenants' load slows every process, by up to half,
for seconds at a time.  A timing taken in such a spell says more about the
neighbours than about gencheb.  So every timing is scaled by
``REFERENCE_MS / reference``, where ``reference`` is the median time of a
fixed loop run on the same CPU around and during the timed call; the result
is the time the call would take on the machine the baseline was taken on,
in a quiet spell.

* In a worker, :class:`Gauge` reads the loop right after each operation
  (that reading also serves as the one right before the next) and, from a
  timer signal, every ``READ_EVERY_S`` during it; each stretch between
  readings is scaled by the readings at its ends, and the readings' own
  time is left out.
* Around a set-up launch and a profiled pass, the loop is read on the same
  CPU right before and right after (:class:`Sampler`), never while the
  timed process runs, so that a reading never competes with it.

The loop uses only ``fractions.Fraction`` and ``int``, the same interpreter
work gencheb does, and no gencheb code, so a change to gencheb never moves
it.  CPU time does not do this job: the slowdown comes from neighbours on
shared cores, not from stolen time, so it shows in CPU time as much as in
wall time (perfbench/README.md gives the figures).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The loop's time on the machine on which perfbench/baseline.json was
# measured (a 2-vCPU KVM guest on a 2.1 GHz Xeon, Python 3.11), in a
# quiet spell.
REFERENCE_MS = 0.37

READ_EVERY_S = 0.1
# A reading taken this recently, at the end of the previous operation, also
# serves as the reading before the next one.
FRESH_S = 0.005


def reference_ms() -> float:
    """Milliseconds for one run of the fixed reference loop."""
    start = time.perf_counter_ns()
    step, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 100):
        total += step * i / (i + 1)
    return (time.perf_counter_ns() - start) / 1e6


def read() -> float:
    """The reference time now: the median of three runs of the loop, the
    first of which warms the caches."""
    return statistics.median(reference_ms() for _ in range(3))


class Sampler:
    """Readings taken right before and right after a timed stretch."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def take(self) -> None:
        self.values.append(read())

    def scaled(self, raw: float) -> float:
        return raw * REFERENCE_MS / statistics.fmean(self.values)


class Gauge:
    """Speed readings in a worker, between and during operations.

    Use as a context manager: inside it a timer signal takes a reading every
    ``READ_EVERY_S``.  ``start()`` before and ``scaled()`` after each call.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reading)
        self.latest = read()
        self.at = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        value = read()
        self.samples.append((started, time.perf_counter(), value))

    def __enter__(self) -> "Gauge":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def reading(self) -> float:
        """A reading between calls, fresh unless one was just taken."""
        if time.perf_counter() - self.at >= FRESH_S:
            self.latest = read()
            self.at = time.perf_counter()
        return self.latest

    def start(self) -> tuple[float, int, float]:
        value = self.reading()
        return value, len(self.samples), time.perf_counter()

    def scaled(self, start: tuple[float, int, float]) -> float:
        """Milliseconds since ``start()`` at the reference speed.

        The call is cut at each timer reading; each piece, less the reading
        itself, is scaled by the mean of the readings at its two ends.
        """
        end = time.perf_counter()
        before, first, t0 = start
        total, edge, speed = 0.0, t0, before
        for tick_start, tick_end, value in self.samples[first:]:
            if tick_start >= end:  # a tick after the call ended
                break
            total += (tick_start - edge) * 2 / (speed + value)
            edge, speed = tick_end, value
        self.at = float("-inf")  # take a fresh reading now
        total += (end - edge) * 2 / (speed + self.reading())
        return total * 1000 * REFERENCE_MS
