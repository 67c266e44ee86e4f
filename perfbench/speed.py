"""Wall time scaled to a fixed interpreter speed.

On a shared host the speed of a core changes while the benchmark runs: on a
2-core Xeon VM, a fixed pure-Python loop took between 1.0x and 1.8x its
fastest time, switching within seconds, and CPU time followed wall time
exactly.  Raw wall times of the same code then spread by a quarter between
runs.  So the benchmark samples the interpreter's speed while the workload
runs and reports wall time at a fixed reference speed.

Every ``INTERVAL_S`` a SIGALRM handler in the main thread times
``calibration()``, a fixed loop that uses no knotmorse code, so a change to
the program cannot move it.  The time the handler takes is taken out of
every measured interval.  An interval of ``w`` seconds, net of the handler,
whose samples took ``c_1 .. c_k`` scales to ``w * mean(REFERENCE_S / c_i)``:
the time it would have taken had the calibration loop run in exactly
``REFERENCE_S``.  The raw times stay in the run's details line.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
# Calibration time that defines the reference speed: about what the loop
# takes on the machine above, so scaled times read close to wall times there.
REFERENCE_S = 0.0004
# Samples taken on each side of an interval as well, so that a short item
# still has some.
MARGIN = 2

_KEYS = tuple(range(64))


def calibration() -> int:
    """A fixed mix of dict, set, tuple, slice and sort work."""
    counts: dict = {}
    seen = set()
    acc = 0
    for i in range(300):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + i
        if key in seen:
            acc += 1
        seen.add(key)
        acc += len(_KEYS[i & 15 : i & 63])
    return acc + len(sorted(counts.items())) + len(frozenset(seen))


class SpeedClock:
    """Readings of wall time, handler time and samples taken, and the
    scaling of the interval between two readings."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        calibration()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self.handler_s += time.perf_counter() - start

    def start(self) -> None:
        for _ in range(3):
            calibration()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Take MARGIN more samples, so that the last interval has samples
        after it too, then stop sampling."""
        wanted = len(self.samples) + MARGIN
        while len(self.samples) < wanted:
            signal.pause()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def read(self) -> tuple[float, float, int]:
        return (time.perf_counter(), self.handler_s, len(self.samples))

    def wall(self, a, b) -> float:
        """Seconds from reading ``a`` to reading ``b``, net of sampling."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def speed(self, a, b) -> float:
        """Mean speed relative to the reference between two readings; call
        it after the samples on both sides of the interval were taken."""
        window = self.samples[max(0, a[2] - MARGIN) : b[2] + MARGIN]
        if not window:
            raise RuntimeError("no speed samples: the run was too short to scale")
        return statistics.fmean(REFERENCE_S / c for c in window)

    def scaled(self, a, b) -> float:
        return self.wall(a, b) * self.speed(a, b)
