"""Host-speed calibration for timings taken on a shared machine.

On a small shared host the same single-threaded Python work takes from
0.7x to 1.4x its typical wall time from one second to the next, because
other tenants load the same physical cores; CPU time moves with wall
time, so it does not help.  The benchmark therefore times a fixed
pure-Python loop before every command and scales each command's wall
time by the loop's nominal time over its local mean:

    normalized = elapsed * NOMINAL_S / mean(loop times near the command)

"Near" means the loop runs just before and just after the command plus
every loop that started within one command-length of it.  Besides the
loop before every command, a `Sampler` runs the loop from a SIGALRM
handler every PERIOD_S, so a long command is scaled by the host speed
over its whole span, not by two samples at its ends; the handler's own
time is subtracted from the command's.  Normalized times read as wall times at the
host speed where the loop takes NOMINAL_S (its median on a 2-CPU x86-64
sandbox at 2.1 GHz).  A change to git-topo cannot move the loop, so a
ratio of normalized times between two commits is a ratio of the
program's own speed.
"""

from __future__ import annotations

import bisect
import signal
import time

ITERATIONS = 15000
NOMINAL_S = 0.0036
PERIOD_S = 0.25


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop."""
    start = time.perf_counter()
    x = 1
    for _ in range(ITERATIONS):
        x = (x * 1103515245 + 12345) % 2147483648
    return time.perf_counter() - start


class Sampler:
    """Calibration samples, taken on request and every PERIOD_S of wall time.

    Use as a context manager; `samples` holds [start, loop seconds] in
    time order and `interrupted_s` the time spent in timer-driven samples.
    """

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self.interrupted_s = 0.0
        self._busy = False

    def sample(self) -> float:
        """Take one sample now; returns the time it took."""
        self._busy = True
        start = time.perf_counter()
        self.samples.append([start, loop_seconds()])
        self._busy = False
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.interrupted_s += self.sample()

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def scale(elapsed: float, loops: list[float]) -> float:
    return elapsed * NOMINAL_S * len(loops) / sum(loops)


def normalize(records: list[dict], samples: list[list[float]]) -> None:
    """Set record["s"], the normalized time of each record.

    records carry "start" and "wall_s"; samples are [start, loop seconds]
    in time order, with at least one before the first record and one
    after the last.
    """
    starts = [t for t, _ in samples]
    for record in records:
        begin, length = record["start"], record["wall_s"]
        end = begin + length
        near = set(range(bisect.bisect_left(starts, begin - length),
                         bisect.bisect_right(starts, end + length)))
        near.add(bisect.bisect_left(starts, begin) - 1)
        near.add(min(bisect.bisect_right(starts, end), len(samples) - 1))
        record["s"] = scale(length, [samples[i][1] for i in near])
