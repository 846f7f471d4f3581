"""Machine-speed probe: scale measured times to a fixed reference speed.

The machine this benchmark was written on shares its cores with other
tenants.  How fast it runs pure-Python code drifts by up to a factor of 1.7
over tens of seconds, far more than a 30-second run can average out, so raw
op times of one run differ from the next by 20 %.  The benchmark therefore
interleaves a fixed reference computation with the ops: every 30 ms a timer
signal runs ``probe`` (a 12x12 Gauss-Jordan elimination mod p on plain
ints, ~0.4 ms), and each op's time is scaled by ``NOMINAL_S`` over the
mean probe time around it.  A reported second is a second at the speed at
which the probe takes ``NOMINAL_S`` seconds (its median on the reference
machine); raw times are reported next to the scaled ones.  tatekit never
runs during a probe, so a change to tatekit moves scaled and raw times
alike.  The probe's own time is taken out of every op's time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

P = 1000003
NOMINAL_S = 0.0004
INTERVAL_S = 0.03
WINDOW_S = 0.1  # probes this close to an op describe its speed
MIN_PROBES = 15  # short ops: about half a second of probes


def probe():
    """One fixed unit of interpreter work; returns its duration in seconds."""
    t0 = time.perf_counter()
    x = 12345
    rows = []
    for _ in range(12):
        row = []
        for _ in range(12):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % P)
        rows.append(row)
    for c in range(12):
        piv = next(i for i in range(c, 12) if rows[i][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], P - 2, P)
        rows[c] = [v * inv % P for v in rows[c]]
        for i in range(12):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t0


def probes(n=25):
    """Durations of ``n`` back-to-back probes."""
    return [probe() for _ in range(n)]


class Sampler:
    """Runs ``probe`` from SIGALRM every INTERVAL_S while started."""

    def __init__(self):
        self.times = []  # probe start, perf_counter seconds
        self.durations = []
        self.busy = 0.0  # total seconds spent probing

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        d = probe()
        self.times.append(t0)
        self.durations.append(d)
        self.busy += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0, t1):
        """Factor NOMINAL_S / (mean probe time within WINDOW_S of [t0, t1]).

        The mean, not the median: an op's time is the integral of the
        machine's speed over it, so a short slow spell counts in full."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        window = self.durations[lo:hi]
        if len(window) < MIN_PROBES:  # a short op: use the closest probes
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, mid - MIN_PROBES // 2)
            window = self.durations[lo : lo + MIN_PROBES]
        return NOMINAL_S / statistics.fmean(window) if window else 1.0
