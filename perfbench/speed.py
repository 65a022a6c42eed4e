"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The 2-CPU virtual machine this benchmark was written on changes speed by up
to ~2x from one moment to the next: slow and fast stretches alternate on
time scales from tens of milliseconds to minutes (other tenants of the
host; process CPU time tracks wall time and the guest reports no steal
time, so the program is not paused but runs slower).  Medians over
repetitions cannot remove that when a whole run falls into a slow stretch.
So the harness times this loop all through a run, between work items (at
most every INTERVAL_S) as well as between repetitions, and states every
timing in reference seconds:

    reference seconds = raw seconds * REFERENCE_S / (loop time around them)

i.e. what the interval would have taken had the loop taken REFERENCE_S.
"Around" is the loop timings just before and just after a work item, and
every loop timing taken during a repetition for the repetition as a whole.
The loop uses nothing from permpoly, so no change to the program moves it;
it does the kind of work permpoly does (log-table multiplication, XOR,
calls), so it slows down with the host the way the workloads do.  Its table
is as large as the largest log table of the workload it gauges (at least
2^12 entries): a workload whose tables outgrow the core's own cache (scan16,
GF(2^16)) also suffers from other tenants' use of the shared cache, and a
loop over a small table would not see that.  Raw seconds are printed
beside the scaled ones in every run's summary, and the time spent in the
loop is left out of every timing.
"""

from __future__ import annotations

import bisect
import time

REFERENCE_S = 0.01    # about the loop's time on a quiet baseline host
INTERVAL_S = 0.15     # least time between two loop timings inside a repetition
# table entries -> loop iterations that take about REFERENCE_S
LOOPS = {1 << 12: 40_000, 1 << 16: 14_000}


def loop_size(table: int) -> int:
    """The smallest loop table that is at least ``table`` entries long."""
    return min(size for size in LOOPS if size >= table)


class Gauge:
    """The loop, its fixed tables and every loop timing of one run."""

    def __init__(self, size: int):
        # laid out like FieldCtx.ensure_tables: exp repeats its first half
        first = [(i * 40503) % size for i in range(size - 1)]
        self._exp = first + first
        self._log = [(i * 7919) % (size - 1) for i in range(size)]
        self._size = size
        self.starts = []   # perf_counter() when each timing began
        self.times = []    # seconds each timing took
        self.spent = 0.0   # seconds spent in sample(), to leave out of timings
        self._due = 0.0

    def _loop(self) -> float:
        exp, log, size = self._exp, self._log, self._size

        def mul(a, b):
            if a == 0 or b == 0:
                return 0
            return exp[log[a] + log[b]]

        t0 = time.perf_counter()
        acc = 1
        for x in range(1, LOOPS[size]):
            acc = mul((acc * 40503 ^ x) % size, (x * 7919) % size) ^ (x & 0xFF)
        return time.perf_counter() - t0

    def sample(self):
        """Time the loop once and keep the timing."""
        t0 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(self._loop())
        end = time.perf_counter()
        self.spent += end - t0
        self._due = end + INTERVAL_S

    def tick(self):
        """Time the loop if INTERVAL_S have passed since the last timing."""
        if time.perf_counter() >= self._due:
            self.sample()

    def scale_around(self, t0: float, t1: float) -> float:
        """Raw-to-reference factor from the timings just before t0 and after t1."""
        i = bisect.bisect_right(self.starts, t0) - 1
        j = bisect.bisect_left(self.starts, t1)
        near = [self.times[k] for k in (i, j) if 0 <= k < len(self.times)]
        return REFERENCE_S * len(near) / sum(near)

    def scale_during(self, t0: float, t1: float) -> float:
        """Raw-to-reference factor from every timing between t0 and t1.

        The range runs from the last timing before t0 to the first after t1.
        """
        i = max(bisect.bisect_right(self.starts, t0) - 1, 0)
        j = min(bisect.bisect_left(self.starts, t1), len(self.times) - 1)
        inside = self.times[i:j + 1]
        return REFERENCE_S * len(inside) / sum(inside)
