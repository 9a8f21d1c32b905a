"""Machine speed, measured next to the program.

On a shared machine the same op can take 1.7x as long from one minute to
the next: on a 2-vCPU Intel Xeon virtual machine, a fixed pure-Python loop
swung between 22 and 37 ms with nothing else running in the machine, and a
run's median pass time spread 16-30% (quartile distance over median)
across five runs.  So every op is also timed in units of a
fixed reference kernel, run right before and right after the op and every
``INTERVAL_S`` during it, from a SIGALRM handler whose own time is taken
out of the op's.  Op time over the mean reference time is the op's cost in
``ref`` units, which moves with the program and much less with the
machine.

The kernel mixes the two kinds of work the package does: interpreter work
on Python objects (dicts, tuples, strings, lists) and numpy work on arrays
larger than the caches next to the core (a gather and arithmetic on 2 MB
int64 arrays).  Four candidate kernels were sampled side by side over the
same 24 runs (four workloads, six seeds); this pair gave the smallest
worst-workload spread of ``wall_ref``, 4.6%, against 10% for a pure-Python
loop with small matrix products and 21% for raw seconds.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25
_N = 1 << 18
_ARRAY = np.arange(_N, dtype=np.int64)
_PERM = np.random.default_rng(0).permutation(_N)


def reference_seconds() -> float:
    """Wall time of the reference kernel, about 10 ms on a 2020s x86 core."""
    t0 = time.perf_counter()
    counts: dict = {}
    words = []
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        words.append(str(i)[:2])
    x = np.take(_ARRAY, _PERM)
    x *= 3
    x += 1
    x %= 1000003
    return time.perf_counter() - t0


class Sampler:
    """While entered, samples the reference kernel every INTERVAL_S.

    ``spent`` is the time the samples took, to be taken out of the op's.
    Signal handlers run in the main thread between bytecodes, so a sample
    waits for a long native call to return rather than cutting into it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
