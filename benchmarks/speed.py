"""Calibration for the drifting CPU speed of shared machines.

On a 2-vCPU container of a shared Intel Xeon host, one and the same
model_check call took from 0.50 s to 0.85 s within a minute, in CPU time as
much as in wall-clock time: the machine's speed moved, not the checker. A
fixed kernel of the same kind of work (building, hashing and sorting small
frozensets, tuples and dicts) slowed down in step with it, also from one
tenth of a second to the next. So the benchmark times the kernel before and
after every call it measures. It scales each call's time by
REFERENCE_KERNEL_S over the median kernel time within WINDOW_S of the call.
The result is the time the call would have taken on a machine where the
kernel takes 3 ms. On a call of about 40 ms repeated for 30 s, this cut the
spread (inter-quartile range over median) from 0.11 to 0.06. A window of
0.7 s left 0.08.
"""

import bisect
import statistics
import time

REFERENCE_KERNEL_S = 0.003
WINDOW_S = 0.1
KERNEL_SIZE = 3000


def kernel():
    table = {}
    for i in range(KERNEL_SIZE):
        key = frozenset((i % 7, i % 11, i * 7 % 13))
        table.setdefault(key, set()).add((i % 17, key))
    return sorted(len(members) for members in table.values())


class Speedometer:
    def __init__(self):
        self.stamps = []
        self.kernel_s = []

    def tick(self):
        started = time.perf_counter()
        kernel()
        self.stamps.append(time.perf_counter())
        self.kernel_s.append(self.stamps[-1] - started)

    def factor(self, start=None, end=None):
        """Seconds measured between start and end, times this factor, are
        seconds at the reference speed. Without an interval: the whole run."""
        near = self.kernel_s
        if start is not None:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
            near = self.kernel_s[lo:hi] or near
        return REFERENCE_KERNEL_S / statistics.median(near)
