"""Item times scaled to a reference machine speed.

On a shared virtual machine the CPU speed seen by one thread swings by
up to 2x within seconds, and the swings do not show in CPU time.  A
fixed pure-Python task, timed in the measuring thread just before and
just after a timed call, tracks that speed: in two replays of the same
items, scaling by it cut the spread of per-block time ratios by more
than half.  A probe taken on another thread does not track it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The probe's time at the reference speed: about its median on a 2-vCPU
# KVM guest of a 2.0 GHz Xeon.  Times are reported as
# wall time * REF_PROBE_S / (mean of the probes around the call).
REF_PROBE_S = 0.0013
REUSE_S = 0.05  # a probe this recent serves as the next call's "before"


def _probe_task() -> None:
    # what the library does most: Fraction arithmetic, dict stores, lists
    acc, seen, out = Fraction(0), {}, []
    for i in range(1, 300):
        acc += Fraction(i * 7919 % 1000, i)
        seen[i * 31 % 97] = acc
        out.append(acc.numerator % 1000003)
    out.sort()


def probe() -> float:
    """Seconds the probe task takes now, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_task()
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Times calls in wall seconds and in reference-speed seconds.

    The cyclic garbage collector's full collections pause a call for up
    to 0.3 s once the caches are large, at whichever call happens to
    trigger them; they made the slowest latencies of a run swing by 25%.
    So the times ``measure`` returns leave out collector pauses, and
    ``gc_scaled`` sums the pauses of every measured call, in scaled
    seconds, for throughput to count them.
    """

    def __init__(self):
        self._last = (float("-inf"), 0.0)  # (when, probe seconds)
        self._gc_start = 0.0
        self._gc_wall = 0.0  # wall seconds of every collector pause so far
        self.gc_scaled = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_wall += time.perf_counter() - self._gc_start

    def _probe(self) -> float:
        p = probe()
        self._last = (time.perf_counter(), p)
        return p

    def measure(self, fn, *args):
        """(scaled seconds, wall seconds, result) of fn(*args), collector
        pauses left out."""
        when, before = self._last
        if time.perf_counter() - when > REUSE_S:
            before = self._probe()
        paused = self._gc_wall
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        paused = self._gc_wall - paused
        scale = 2 * REF_PROBE_S / (before + self._probe())
        self.gc_scaled += paused * scale
        return (wall - paused) * scale, wall - paused, result
