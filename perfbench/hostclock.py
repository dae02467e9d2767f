"""Wall clock that also reads in reference seconds.

A host that shares its cores changes speed by itself: on a 2-vCPU Xeon VM
the same pass took 60-80% longer a few minutes later.  A
`HostClock` measures that speed while the pass runs.  Every INTERVAL_S an
interval timer (SIGALRM, handled in the main thread between bytecodes)
times one slice of a fixed integer loop, `kernel`, that owes nothing to the
library.  A stretch of the pass between two slices is then scaled by how
fast the slices around it ran:

    ref seconds = sum over stretches of  length * REF_SLICE_S / slice time

so a stretch on a host running at half speed counts half its length.  The
slices themselves are left out of both the raw and the reference time.
`kernel` allocates no container and runs with the garbage collector off, so
a library that holds a larger heap does not slow the slices and hide its
own cost.  No threads or processes are started.
"""
from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.01     # one slice per 10 ms of the pass
SLICE_LOOPS = 1000    # about 0.25 ms: 2-3% of the pass
REF_SLICE_S = 250e-6  # slice time at the reference speed


def kernel(n: int) -> int:
    x, acc = 12345, 0
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> (i & 7)
    return acc


class HostClock:
    def __init__(self) -> None:
        self.start = array("d")  # perf_counter at each slice's start
        self.took = array("d")   # each slice's duration

    def sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        kernel(SLICE_LOOPS)
        took = perf_counter() - t
        if enabled:
            gc.enable()
        self.start.append(t)
        self.took.append(took)

    def run(self) -> None:
        """Sample now and every INTERVAL_S until `stop`."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def seconds(self, a: float, b: float) -> tuple[float, float]:
        """(raw, reference) seconds of the stretch from perf_counter a to b,
        which lie between the first and the last sample, outside slices."""
        start, took = self.start, self.took
        lo, hi = bisect_right(start, a), bisect_left(start, b)
        raw = ref = 0.0
        t = a
        for i in range(lo, hi + 1):
            # the stretch t..end lies between slice i-1 and slice i
            end = start[i] if i < hi else b
            k = (took[i - 1] + took[min(i, len(took) - 1)]) / 2
            raw += end - t
            ref += (end - t) * REF_SLICE_S / k
            if i < hi:
                t = start[i] + took[i]
        return raw, ref
