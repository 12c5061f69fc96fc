"""Machine speed, sampled while the benchmark measures.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
drifts by up to 2x within minutes as the host's other tenants come and
go: on a 2-vCPU KVM guest, :func:`kernel` took from 260 to 570 us within
a few minutes.  Wall times of identical work drift with it.  So every
timed region runs under a :class:`Sampler`: a ``SIGALRM`` timer that,
every :data:`PERIOD` seconds, interrupts the measured code and times one
run of :func:`kernel`, a fixed piece of interpreter work owned by the
benchmark.  The kernel's median CPU time over a region is the machine's
speed during that region, and the region's own time (its wall time minus
the sampler's handler time) divided by that median is a cost in
reference units that no longer depends on the drift.

Times reported this way are *reference seconds* (unit ``ref_s``, and
``ref_ms``): a region's own time scaled to a machine on which one kernel
run takes :data:`NOMINAL_KERNEL_S`.  That is about what the kernel takes
on a 2 GHz Sapphire Rapids KVM vCPU while its host is quiet, so reference
seconds read close to wall seconds there.  The program never sees the
sampler beyond the interruptions (about 2% of a region's time), but the
kernel shares the CPU caches with it, so a change in how the program
uses memory can move the kernel's time a little; the raw wall times stay
reported beside the reference times for that reason.

Only the main thread of a process may use a sampler, one at a time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds between two samples.
PERIOD = 0.02
#: Median kernel time, in seconds, that defines one reference second.
NOMINAL_KERNEL_S = 0.0003
#: Fewest samples a region's speed is taken from by default; a shorter
#: region borrows the samples nearest to it.
MIN_SAMPLES = 10


def kernel(n: int = 600) -> int:
    """Fixed interpreter work: small-int arithmetic and a tuple-valued dict."""
    table = {}
    acc = 0x9E3779B9
    for i in range(n):
        key = (i * 2654435761) & 0x3FF
        acc = ((acc << 1) ^ i ^ (acc >> 3) ^ len(table.get(key, ()))) & 0xFFFFFFFF
        table[key] = (acc, i)
    return acc


class Sampler:
    """Times :func:`kernel` every :data:`PERIOD` seconds while it is open.

    ``samples`` holds ``(start, wall seconds, CPU seconds)`` for every
    kernel run, in time order, on the :func:`time.perf_counter` clock.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        # The kernel's speed is taken in CPU time, so that a kernel run the
        # scheduler preempts does not read as a slow machine.
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        self.samples.append((start, time.perf_counter() - start, cpu))

    def __enter__(self) -> "Sampler":
        self._tick(None, None)  # so that even the shortest region has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_seconds(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` minus the sampler's time inside it."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return (end - start) - sum(s for _, s, _ in self.samples[lo:hi])

    def kernel_seconds(
        self, start: float, end: float, least: int = MIN_SAMPLES
    ) -> float:
        """Median kernel time over ``[start, end]``, from at least ``least`` runs."""
        if not self.samples:
            raise RuntimeError("no machine-speed samples were taken")
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        if hi - lo < least:
            middle = bisect.bisect_left(self.samples, ((start + end) / 2,))
            lo = max(0, min(middle - least // 2, len(self.samples) - least))
            hi = lo + least
        return statistics.median(cpu for _, _, cpu in self.samples[lo:hi])


def to_ref(seconds: float, kernel_s: float) -> float:
    """Reference seconds of ``seconds`` measured while the kernel took ``kernel_s``."""
    return seconds * NOMINAL_KERNEL_S / kernel_s
