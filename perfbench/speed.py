"""Machine-speed probe, interleaved with the timed ops.

The benchmark shares its CPUs with other work.  On a 2-CPU machine the
speed of the same single-threaded Python code was seen to drift by up to
2x over tens of seconds, in process CPU time as much as in wall time, so
neither longer runs nor best-of-N repeats make raw times comparable from
one run to the next.  The probe times a fixed unit of work that does not
touch cqca (dict and tuple churn, small numpy convolutions and text
formatting: the mix the package spends its time on) whenever INTERVAL_S
of wall time has passed since its last sample, checked before and after
every op.  An op's time is reported at the reference speed: wall time *
REF_S / s, where s is the median of the samples taken within WINDOW_S of
the op (the drift is slow next to that window; single samples are noisy).
A slower program still shows as slower; a slower machine does not.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# Typical time of one probe unit on an idle 2-CPU x86 host; it only sets the
# scale, so normalised times read close to wall times on such a host.
REF_S = 0.6e-3
INTERVAL_S = 0.1
WINDOW_S = 0.5
_ARANGE = np.arange(200, dtype=np.int64)


def _unit():
    acc = {}
    for i in range(600):
        key = (i & 63, i >> 6)
        acc[key] = acc.get(key, 0) + i * 3 % 7
    for _ in range(4):
        (np.convolve(_ARANGE, _ARANGE) % 7).nonzero()
    return "".join(f"{k[0]},{k[1]},{v}\n" for k, v in sorted(acc.items()))


class SpeedProbe:
    def __init__(self):
        self.stamps = []
        self.samples = []
        self.tick(force=True)

    def tick(self, force=False) -> None:
        """Take a sample if the last one is INTERVAL_S old."""
        if force or time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            # Without the collector, whose pauses depend on what the ops
            # left behind, the sample measures the machine alone.
            gc.disable()
            try:
                t0 = time.perf_counter()
                _unit()
                t1 = time.perf_counter()
            finally:
                gc.enable()
            self.stamps.append(t1)
            self.samples.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """The time from `start` to `end`, at the reference speed.

        Call it once the run is over, so samples after the interval count.
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return (end - start) * REF_S / statistics.median(near)
