"""A fixed unit of pure-Python work that measures how fast the CPU runs.

On a shared virtual machine the same code can run 30-50% slower for
seconds to minutes at a time, because other tenants load the physical
cores.  Such a slowdown hits the probe and the program alike when both
run on the same CPU at the same time.  So a background thread in the
launcher runs one unit every `INTERVAL_S` all through a run, on the CPU
that the benchmark and the program are pinned to, and times each unit
by its own thread's CPU time, which leaves out the time the program
held the CPU.  Each time is then reported scaled to a machine where one
unit takes `REF_S`, by the units that ran while it was measured:

    scaled = measured * REF_S / mean(times of the units beside it)

Units are kept as [end, seconds] pairs, `end` being the `perf_counter`
reading when the unit finished, which is comparable across processes.

The units take about 4% of the CPU, in every measured operation alike.
The work is dictionary, tuple and integer operations, as in the program.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional

# The mean time of one unit on the machine the scaled times refer to
# (a typical reading on a 2-vCPU VM with Python 3.11).
REF_S = 0.0012
INTERVAL_S = 0.03
UNIT_ITERATIONS = 3_000


def unit() -> int:
    table = {}
    acc = 0
    for i in range(UNIT_ITERATIONS):
        key = (i * 7919) & 1023
        pair = (key, i & 7)
        table[pair] = table.get(pair, 0) + 1
        acc += key if i & 1 else len(table)
    return acc


class Background:
    """Runs a unit every `INTERVAL_S` in a daemon thread and keeps the
    units' [end, CPU seconds] pairs until they are taken."""

    def __init__(self) -> None:
        self._units: List[List[float]] = []
        self._lock = threading.Lock()
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            t0 = time.thread_time()
            unit()
            elapsed = time.thread_time() - t0
            with self._lock:
                self._units.append([time.perf_counter(), elapsed])
            time.sleep(INTERVAL_S)

    def take(self) -> List[List[float]]:
        """The units recorded since the last call."""
        with self._lock:
            out, self._units = self._units, []
        return out


def factor(probe_s: List[float]) -> Optional[float]:
    """What to multiply a time measured while these units ran by, so that
    it reads as on the reference machine, or None without units.  The
    mean, not the median, because a timed operation runs through the slow
    moments and the fast ones alike."""
    return REF_S / statistics.fmean(probe_s) if probe_s else None
