"""Machine-speed calibration for the closed loop.

On a shared host the interpreter's speed switches between fast and slow
spells, up to 1.7x apart over ten-second windows, and pure-Python code
slows together: two different loops interleaved every few milliseconds kept
their time ratio within 0.04 while each one's median moved by 0.2-0.3.  So a
timer signal runs kernel() every INTERVAL_S while the loop runs (samples
fall inside long operations too) and records when and how long it took.  An
operation's latency is then

    (wall time - kernel time inside it) * REFERENCE_S / kernel time nearby

that is, seconds at a reference speed where one kernel() call takes
REFERENCE_S, which lies between its fastest and its median time on the
2-vCPU VM the benchmark was written on.
"""

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.01
REFERENCE_S = 0.0004
# an operation shorter than a few intervals borrows the samples nearest to it
MIN_SAMPLES = 8

_KEYS = [(i % 5, i % 7, i % 3, i) for i in range(48)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def kernel(rounds=40):
    """A fixed mix of what slchyp spends its time on: small-int arithmetic,
    dict lookups on exponent tuples and loop overhead.  Allocates nothing
    the garbage collector tracks."""
    acc, table = 1, _TABLE
    for r in range(rounds):
        for key in _KEYS:
            acc = (acc * 31 + table[key] * (r + 7)) % 1000003
            acc ^= key[1] << 3
    return acc


def time_kernel():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return t0, time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Samples KERNEL on a timer while running; `busy` is the total time
    spent in samples, so a caller can take it out of what it timed."""

    def __init__(self):
        self.at, self.took, self.busy = [], [], 0.0

    def _tick(self, _signum, _frame):
        t0, took = time_kernel()
        self.at.append(t0)
        self.took.append(took)
        self.busy += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_time(self, start, end):
        """Kernel time at the mean speed (the harmonic mean of the kernel
        times) over the samples taken in [start, end], or over the
        MIN_SAMPLES samples nearest to that interval when it holds fewer.
        Speed, not time, is what averages over an operation: the host
        switches between fast and slow spells, and a median would pick one."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if hi >= len(self.at) or (lo > 0 and start - self.at[lo - 1] < self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.harmonic_mean(self.took[lo:hi])

    def normalise(self, start, end, busy):
        """Latency at reference speed of an operation timed from start to
        end, during which the samples took `busy` seconds."""
        return (end - start - busy) * REFERENCE_S / self.kernel_time(start, end)
