"""Machine-speed calibration for timings taken on a shared machine.

A shared 2-core virtual machine was measured to change speed by up to 2x
over seconds to minutes, and CPU time changes with wall time, so raw
timings of the same work spread too widely to compare two commits. A fixed pure-Python
kernel (dict updates and integer arithmetic, the operations the engines
spend their time on) is timed once every INTERVAL_S while the timed code
runs, by a SIGALRM handler in the same thread. A span of timed code, less
the time spent in the handler, is scaled by REFERENCE_S over the kernel's
mean time across all the samples taken during that span. Every timing is
scaled this way, whatever its length. This cancels the machine's drift but
not a change in the program's own speed, because the kernel never calls the
program. The samples run inside the program's process, so a change to the
program's memory use can still move them a little.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Reported timings are seconds on a machine where `kernel` takes this long.
REFERENCE_S = 0.0002
INTERVAL_S = 0.02
PROBE_RUNS = 20


def kernel():
    table = {}
    acc = 0
    for i in range(1000):
        key = (i * 7919) & 1023
        old = table.get(key)
        table[key] = i if old is None else old + i
        acc += key & 3
    return acc


def probe():
    """Median kernel time over PROBE_RUNS back-to-back runs. Recorded beside
    the sampled figure for comparison; timings are not scaled by it."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernel_time(samples):
    """Mean of the samples with the top and bottom tenth dropped: a sample
    that a context switch hit would dominate a plain mean."""
    cut = len(samples) // 10
    return statistics.fmean(sorted(samples)[cut:len(samples) - cut])


def scale(samples):
    """Factor that takes a timing sampled by `samples` to the reference
    machine speed."""
    return REFERENCE_S / kernel_time(samples)


class Sampler:
    """Times the kernel every INTERVAL_S of wall time while active.

    The handler stays installed on exit: a tick already pending when the
    timer is disarmed then still lands here, and its time in `spent`,
    instead of reaching a restored default handler.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0     # wall time inside the handler, to subtract

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False
