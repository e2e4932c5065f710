"""Reference kernel that measures how fast the host runs right now.

On a shared host the speed of this kind of code changes by up to 1.9x from
one second to the next and from one process to the next, while the program
does the same work. So the benchmark times this fixed piece of pure-Python
work every ``INTERVAL_S`` seconds of the timed phase, from a timer signal,
and scales each operation's time by ``NOMINAL_S / (mean kernel time around
the operation)``. The kernel does the kind of work toristack does - integer
Bareiss elimination, gcds, ``Fraction`` elimination, tuple and set churn -
in proportions chosen so that it slows down about as much as a toristack
operation when the host does (1.62x to 1.66x against 1.55x to 1.67x for
four kinds of operation, measured side by side), but it imports nothing from
toristack, so a change to the program cannot move it.

Changing anything in this file changes every scaled figure: do it only in a
change to the benchmark itself, and measure a new baseline after it.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

# Mean kernel time on the reference host (Python 3.11.7, 2 vCPUs) in its
# fast state. Scaled times read as if every operation had run at that speed.
NOMINAL_S = 0.00045

INTERVAL_S = 0.02   # one kernel sample per 20 ms of wall time
WINDOW_S = 0.1      # samples this close to an operation scale it
OUTLIER = 2.5       # the two speed states are 1.7x apart; more is preemption
CHECKSUM = 223341208


def _matrices():
    """Deterministic 4x4 integer matrices from a linear congruential stream."""
    x = 20071007
    out = []
    for _ in range(24):
        rows = []
        for _ in range(4):
            row = []
            for _ in range(4):
                x = (x * 1103515245 + 12345) % (1 << 31)
                row.append((x >> 16) % 19 - 9)
            rows.append(row)
        out.append(rows)
    return out


_MATRICES = _matrices()


def _bareiss(rows) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _fraction_solve(rows) -> Fraction:
    """First coordinate of the solution of rows x = (1, 1, 1, 1) over Q."""
    a = [[Fraction(v) for v in row] + [Fraction(1)] for row in rows]
    n = len(rows)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        a[c], a[piv] = a[piv], a[c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return a[n - 1][n] / a[n - 1][n - 1]


def reference_kernel() -> int:
    """One unit of reference work; returns ``CHECKSUM`` every time."""
    seen = set()
    acc = 0
    for rows in _MATRICES:
        det = _bareiss(rows)
        g = 0
        for row in rows:
            for v in row:
                g = math.gcd(g, 7 * v + 1)
        key = tuple(tuple(sorted(row)) for row in rows)
        seen.add(key)
        seen.add(tuple(reversed(key)))
        acc = (acc * 31 + det * g) % 1000000007
    for rows in _MATRICES[:2]:
        acc = (acc + _fraction_solve(rows).numerator) % 1000000007
    return (acc + len(seen)) % 1000000007


class Sampler:
    """Times the reference kernel every ``INTERVAL_S`` of wall time.

    A SIGALRM handler runs the kernel in the main thread, between two
    bytecodes of whatever is running, so samples fall uniformly in time,
    inside long operations as well as between short ones. ``busy`` gives the
    kernel time to take out of an interval, ``scale`` the factor for it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.wrong = 0
        self._previous = None
        self._ceiling = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # a collection inside the kernel would time the program's heap
        try:
            start = time.perf_counter()
            value = reference_kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.wrong += value != CHECKSUM
        self.starts.append(start)
        self.durations.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.wrong:
            raise AssertionError("reference kernel changed its result")
        return False

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def busy(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end)."""
        return sum(self._between(start, end))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time within WINDOW_S of [start, end).

        Samples more than OUTLIER times the run's 5th percentile were
        stretched by preemption and say nothing about the host's speed; they
        are left out.
        """
        if self._ceiling is None:
            self._ceiling = OUTLIER * statistics.quantiles(self.durations, n=20)[0]
        window = WINDOW_S
        while True:
            samples = [t for t in self._between(start - window, end + window)
                       if t <= self._ceiling]
            if samples or window > 1000:
                break
            window *= 2
        return NOMINAL_S / statistics.mean(samples)

    def run_scale(self) -> float:
        return NOMINAL_S / statistics.mean(self.durations)
