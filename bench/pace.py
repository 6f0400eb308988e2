"""The machine's pace, sampled while the program runs.

A shared 2-vCPU x86-64 VM changes speed by up to half for periods of
seconds to minutes: a fixed pure-Python loop takes 0.10 s in one stretch
and 0.15 s in the next, CPU time and wall time alike. That moves every
wall-clock figure by as much, whatever the program does. So the benchmark
times a fixed piece of its own work, a calibration chunk, every PERIOD
seconds on an interval timer. Python runs the SIGALRM handler between the
program's bytecodes in the same thread, so a chunk sees the machine as the
program sees it. The runner then reports each op's wall time times
(NOMINAL_S / mean chunk time around the op) ** SENSITIVITY: reference
seconds, the time the op would take on a machine where a chunk takes
NOMINAL_S (such a VM in its fast stretches, Python 3.11).

SENSITIVITY was fitted on ten runs of each of the four workloads: with
plain scaling (SENSITIVITY 1), a run's reference ops_per_s still rose with
the machine's pace, as its 0.20-0.23th power on every workload, because
the program slows down more than the chunk does.

The chunk touches only a prebuilt dict and small ints, so it allocates no
object the garbage collector tracks, and its duration does not depend on
the size of the program's heap. Time spent in the handler is counted and
taken out of the op that it interrupted; it is about 3% of op time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

PERIOD = 0.05
ROUNDS = 30
NOMINAL_S = 0.0011
# when the machine slows the chunk down by a factor f, the program's ops slow
# down by about f ** SENSITIVITY: the chunk lives in the innermost caches,
# the program reaches further and loses more when a neighbour competes
SENSITIVITY = 1.2

_KEYS = tuple(range(512))
_TABLE = {k: (k * 7919) % 1009 for k in _KEYS}


def chunk() -> float:
    """Duration of one calibration chunk, in seconds."""
    table, keys = _TABLE, _KEYS
    start = time.perf_counter()
    acc = 0
    for _ in range(ROUNDS):
        for k in keys:
            acc = (acc + table[k] * k) & 0xFFFF
    return time.perf_counter() - start


def measure() -> float:
    """Median of five chunks run back to back: the pace right now."""
    return statistics.median(chunk() for _ in range(5))


class Sampler:
    """Chunks on an interval timer, and the time they took from the program.

    start() and stop() arm and disarm the timer; `stolen` is the wall time
    spent in the handler so far, to be subtracted from whatever it
    interrupted.
    """

    def __init__(self):
        self.times = array("d")
        self.paces = array("d")
        self.stolen = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        entered = time.perf_counter()
        try:
            pace = chunk()
        except RecursionError:
            pass  # the program is at the recursion limit; skip this sample
        else:
            self.times.append(entered)
            self.paces.append(pace)
        self.stolen += time.perf_counter() - entered

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Disarm the timer and take one last sample, so that every op has
        a sample after it, even in a stretch shorter than PERIOD."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.times.append(time.perf_counter())
        self.paces.append(chunk())

    def around(self, start: float, end: float) -> float:
        """Mean pace over [start, end]: the samples inside it and the
        nearest one on each side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        window = self.paces[lo:hi]
        return sum(window) / len(window)


def reference(seconds: float, pace: float) -> float:
    """Wall seconds taken at the given pace, as reference seconds."""
    return seconds * (NOMINAL_S / pace) ** SENSITIVITY
