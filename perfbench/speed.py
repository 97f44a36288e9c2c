"""The machine's speed through a run, to put every timing at one speed.

The benchmark's machine shares its cores with other tenants, and its speed
drifts: a fixed piece of work takes up to twice as long from one second to
the next, and the process's CPU time drifts with its wall time, so the time
goes to a slower core, not to waiting. Over 20-second windows of one
process, the median of a 128-row `predict` spread 19-31% (quartile
distance over median) from window to window.

So an untraced run takes a probe every INTERVAL_S, from a timer signal: a
fixed mix of the kinds of work the program does, independent of it (small
matmuls, an elementwise `exp`, an interpreter loop, parsing floats from
text and writing them as JSON, and a sum over an array larger than L2).
The probe runs in the main thread between two bytecodes, so it also lands
inside long operations such as `fit`. Each
operation's time is then its wall time less the probe time inside it,
scaled by `REFERENCE_MS / (median probe reading over the operation)`: the
time it would have taken with the machine at its reference speed. A change
to the program moves the operation's time and not the probe's, so it moves
the scaled time by the same share as the wall time.
"""

from __future__ import annotations

import json
import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

# A typical probe reading among the program's work on the reference
# machine (2-core x86_64 virtual machine, numpy 2.4.6 with OpenBLAS pinned
# to 1 thread), in ms; run medians were 1.6-2.2.
REFERENCE_MS = 2.0
# A reading every INTERVAL_S.
INTERVAL_S = 0.075
# An operation's speed is the median of the readings from WINDOW_S before
# it starts to WINDOW_S after it ends.
WINDOW_S = 0.5


class Speed:
    """Probe readings of one run, and what they make of each operation."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((120, 120))
        self._e = rng.random((200, 64))
        self._text = [repr(v) for v in rng.standard_normal(500).tolist()]
        self._floats = rng.standard_normal(500).tolist()
        self._big = rng.random(500_000)     # 4 MB: past L2, within L3
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ms: list[float] = []
        self._saved = None

    def probe(self) -> None:
        """One reading of the fixed work."""
        t0 = perf_counter()
        for _ in range(2):
            self._a @ self._a
        np.exp(-self._e)
        sum(i * i for i in range(1000))
        [float(v) for v in self._text]
        json.dumps(self._floats)
        self._big.sum()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.ms.append((t1 - t0) * 1e3)

    def _tick(self, _signum, _frame) -> None:
        self.probe()

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._saved is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def net(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] not spent on probes."""
        lo = bisect_right(self.ends, t0)
        hi = bisect_left(self.starts, t1)
        inside = sum(min(e, t1) - max(s, t0) for s, e in
                     zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (t1 - t0) - inside

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_MS over the median reading around [t0, t1]; 1 when
        there is none."""
        lo = bisect_right(self.ends, t0 - WINDOW_S)
        hi = bisect_left(self.starts, t1 + WINDOW_S)
        if lo >= hi:
            return 1.0
        return REFERENCE_MS / median(self.ms[lo:hi])

    def seconds(self, intervals, scaled: bool = True) -> float:
        """Total time of the intervals less their probes, each at the
        reference speed (or as measured, when not `scaled`)."""
        return sum(self.net(t0, t1) * (self.scale(t0, t1) if scaled else 1.0)
                   for t0, t1 in intervals)

    def summary(self) -> dict:
        q = np.quantile(self.ms, [0.0, 0.25, 0.5, 0.75, 1.0]) \
            if self.ms else [0.0] * 5
        return {"readings": len(self.ms), "reference_ms": REFERENCE_MS,
                "min_ms": q[0], "q1_ms": q[1], "median_ms": q[2],
                "q3_ms": q[3], "max_ms": q[4]}
