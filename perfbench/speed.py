"""The machine's current speed, measured by a fixed probe between operations.

On a shared 2-vCPU virtual machine (Intel Xeon), Python code speeds up
and slows down by 15% or more over minutes, and all of it moves
together, within a second or two. So each operation's time is scaled by
how fast the probe ran around it: time × REFERENCE_S / (median time of
the probes next to the operation). Over twelve
8-second windows of the first 40 recover jobs, scaling by each window's
probe cut the spread of the pass time from 22.8% to 4.0% of its median.

The probe is the benchmark's own fixed code, a small mix of the kinds of
work randpipe does: parsing decimal lines, building and scanning a bit
string, the generator recurrence into a window, and a numpy histogram. A
change to randpipe cannot move it.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

import numpy as np

REFERENCE_S = 0.015     # the probe's median time on the reference machine
EVERY_S = 0.2           # probe at most this often, between operations
AROUND_S = 0.3          # probes this close to an operation set its speed
MODULUS = 2**31 - 1


class SpeedProbe:
    def __init__(self) -> None:
        values = np.random.default_rng(0).integers(0, 1024, 20000)
        self._text = "\n".join(map(str, values.tolist()))
        self.at: list[float] = []        # start of each probe
        self.times: list[float] = []     # its duration

    def _work(self) -> int:
        vals = [int(t) for t in self._text.split("\n")]
        bits = "".join("1" if v & 1 else "0" for v in vals)
        ones = sum(1 for ch in bits if ch == "1")
        x, window = 1, deque(maxlen=100)
        for _ in range(30000):
            x = x * 16807 % MODULUS
            window.append(x)
        return ones + int(np.bincount(np.array(vals), minlength=1024).argmax())

    def measure(self) -> None:
        start = perf_counter()
        self._work()
        self.at.append(start)
        self.times.append(perf_counter() - start)

    def between_operations(self) -> None:
        """Probe when EVERY_S has passed since the last probe ended."""
        if not self.at or perf_counter() - self.at[-1] - self.times[-1] >= EVERY_S:
            self.measure()

    def factor(self, start: float, end: float) -> float:
        """Multiply the time of work done from start to end by this to get
        its time on the reference machine.

        The speed comes from the probes within AROUND_S of the interval,
        or the two nearest ones when there are fewer.
        """
        near = [t for at, t in zip(self.at, self.times) if start - AROUND_S <= at <= end + AROUND_S]
        if len(near) < 2:
            mid = (start + end) / 2
            order = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))
            near = [self.times[i] for i in order[:2]]
        return REFERENCE_S / statistics.median(near)

    def run_factor(self) -> float:
        """The same for a whole run: from the median of all its probes."""
        return REFERENCE_S / statistics.median(self.times)
