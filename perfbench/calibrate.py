"""Speed probes: sample time in seconds of an uncontended core.

The cores this benchmark runs on are shared with other tenants.  A core
runs Python at full speed or at about half speed, switching every 10 to
100 ms, and how much of a run is slow drifts from minute to minute, so
the median of whole samples moves by tens of percent between runs of the
same code.  Nothing outside the sample tracks it: a reference loop on the
other core sees its own, independent slow spells.

So the sample measures its own core's speed as it runs.  ``Probe`` arms a
real-time interval timer; at every tick the signal handler times a fixed
piece of pure-Python integer work (``probe_work``), between two bytecodes
of the program, on the same core and at the same moment.  ``calibrated``
then divides each stretch of the program's own time between two ticks by
the slowdown the probes saw (probe time over ``REFERENCE_S``, the probe's
time on an uncontended core), and leaves the ticks' own time out.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import perf_counter

# One tick every 2 ms: several per slow or fast spell, and the ticks take
# about 1% of the sample's time.
INTERVAL_S = 0.002
# The warm ``probe_work`` inside the signal handler on an uncontended core:
# about the 1st percentile of its times on the 2-core Intel Xeon (family 6,
# model 143) machine the benchmark was written on.  It only sets the scale.
REFERENCE_S = 4.7e-6

# A small fixed system of rows (c_0, c_1, c_2, c_3, rhs).
_ROWS = ((3, -2, 5, 1, 40), (-1, 4, 2, -3, 35), (2, 2, -1, 4, 50), (-3, 1, 1, 2, 30))


def probe_work() -> int:
    """Fixed integer work over tuples and a list: the bound computation of
    the lattice scan, on a small system, three times."""
    x = [2, 3, 1]
    lo = hi = 0
    for _ in range(3):
        for row in _ROWS:
            s = row[-1]
            for i in range(3):
                s -= row[i] * x[i]
            c = row[3]
            if c > 0:
                b = s // c
                if b < hi or hi == 0:
                    hi = b
            else:
                b = -(s // (-c))
                if b > lo:
                    lo = b
    return lo + hi


class Probe:
    """Times ``probe_work`` at every timer tick from ``start`` to ``stop``."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.durations = array("d")

    def _tick(self, signum, frame) -> None:
        # The first run brings the probe's code and data back into the
        # caches the program has filled; only the second, warm run is timed.
        # Both are probe time, left out of the program's.
        started = perf_counter()
        probe_work()
        warm = perf_counter()
        probe_work()
        ended = perf_counter()
        self.starts.append(started)
        self.ends.append(ended)
        self.durations.append(ended - warm)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def save(self, path) -> int:
        """Write probe starts, ends and timed durations, as native doubles;
        return the number of probes."""
        with open(path, "wb") as out:
            for values in (self.starts, self.ends, self.durations):
                out.write(memoryview(values))
        return len(self.starts)


def load(path, count: int) -> tuple:
    """(starts, ends, durations) as written by ``Probe.save``."""
    values = array("d")
    with open(path, "rb") as f:
        values.frombytes(f.read())
    return tuple(values[i * count : (i + 1) * count].tolist() for i in range(3))


def calibrated(
    starts: list, ends: list, durations: list, begin: float, end: float
) -> float:
    """Program time from ``begin`` to ``end`` in seconds of an uncontended
    core.

    A probe's slowdown is the median time of it and its two neighbours over
    ``REFERENCE_S``, so that one probe hit by an interrupt does not count as
    a slow spell.  Each stretch between two probes is divided by the mean
    slowdown of the two; the stretch before the first probe and the one
    after the last take that probe's slowdown.  Probe time is left out.
    """
    if not starts:
        return end - begin
    slowdowns = [
        statistics.median(durations[max(0, k - 1) : k + 2]) / REFERENCE_S
        for k in range(len(durations))
    ]
    total = 0.0
    edge, previous = float("-inf"), None
    for start, stop, slowdown in zip(starts, ends, slowdowns):
        factor = slowdown if previous is None else (previous + slowdown) / 2
        total += max(0.0, min(start, end) - max(edge, begin)) / factor
        edge, previous = stop, slowdown
    total += max(0.0, end - max(edge, begin)) / previous
    return total
