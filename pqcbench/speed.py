"""Host speed probe: times at a nominal CPU speed.

The benchmark runs on a shared host, which disturbs wall times in two ways:

* the benchmark's core is taken away for milliseconds at a time, by the
  hypervisor or by other processes; those gaps land on random ops and
  make up most of the latency tails;
* the speed of the core swings by half within seconds, as other tenants
  load its siblings and the host changes clock speed.

So every interval is timed in the CPU time of this process, which leaves
out the gaps, and is rescaled to a nominal speed.  While the benchmark
measures, a timer interrupts it every ``PROBE_EVERY_S`` and runs a fixed
calibration loop, which samples the speed as it drifts, also in the middle
of a long call.  An interval's time is its CPU time less the probes inside
it, times the mean speed the probes around it saw:

    scaled = (cpu - probes) * NOMINAL_S * mean(1 / probe_cpu_s)

The loop is pure Python of the same kind as pqc's (integer shifts and
masks, list and dict traffic, small function calls) and imports nothing
from pqc, so a change to pqc never changes the yardstick.  On an idle
2.1 GHz Xeon core the loop takes about ``NOMINAL_S``, so scaled times read
as the wall times of such a core with nothing else on it.  CPU time does
not count work done in other processes: pqc does all its work in the
calling thread.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from time import perf_counter, process_time

NOMINAL_S = 0.001  # the loop's time on an idle 2.1 GHz Xeon core
PROBE_EVERY_S = 0.02  # timer period of the probe
WINDOW_S = 0.05  # probes this close to an interval describe its speed
MIN_PROBES = 4  # otherwise the nearest probes on each side are taken


def _mix(x: int, k: int) -> int:
    return ((x << k) | (x >> (32 - k))) & 0xFFFFFFFF


def calibration_loop() -> int:
    """Fixed work of about a millisecond; its result is discarded."""
    table = {}
    row = []
    acc = 0x9E3779B9
    for i in range(2000):
        acc = _mix(acc ^ i, 5 + (i & 7))
        code = acc & 0x3FF
        row.append(code)
        table[code] = table.get(code, 0) + 1
        if len(row) > 16:
            acc ^= row[i & 15] << 3
            row.pop(0)
    return acc + len(table)


class SpeedClock:
    """Probe timeline of one run, and the rescaling of timed intervals.

    A reading of ``now()`` is a (wall, cpu) pair; an interval is a pair of
    readings.  Probes are placed on the wall clock."""

    def __init__(self):
        self.start = []  # wall start of each probe, ascending
        self.took = []  # CPU time of each probe
        self._wall = [0.0]  # prefix sums of the probes' wall times
        self._cpu = [0.0]  # prefix sums of ``took``

    @staticmethod
    def now() -> tuple:
        return perf_counter(), process_time()

    def probe(self, *_signal_args):
        w0, c0 = perf_counter(), process_time()
        calibration_loop()
        c1, w1 = process_time(), perf_counter()
        self.start.append(w0)
        self.took.append(c1 - c0)
        self._wall.append(self._wall[-1] + w1 - w0)
        self._cpu.append(self._cpu[-1] + c1 - c0)

    @contextlib.contextmanager
    def sampling(self):
        """Probe on a timer while the block runs.

        The probe runs in the main thread between two bytecodes of whatever
        is being timed, so a probe lies wholly inside or outside any timed
        interval, and ``busy`` and ``scaled`` take it out."""
        old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def _inside(self, sums: list, t0: float, t1: float) -> float:
        return sums[bisect.bisect_right(self.start, t1)] - sums[bisect.bisect_left(self.start, t0)]

    def busy(self, start: tuple, end: tuple) -> float:
        """Wall time of the interval less the probes inside it."""
        return end[0] - start[0] - self._inside(self._wall, start[0], end[0])

    def scaled(self, start: tuple, end: tuple) -> float:
        """CPU time of the work in the interval, at the nominal speed."""
        t0, t1 = start[0], end[0]
        lo = bisect.bisect_left(self.start, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.start, t1 + WINDOW_S)
        if hi - lo < MIN_PROBES:
            lo = max(0, min(lo, bisect.bisect_left(self.start, t0) - MIN_PROBES // 2))
            hi = min(len(self.start), max(hi, bisect.bisect_right(self.start, t1) + MIN_PROBES // 2))
        if hi <= lo:
            raise RuntimeError("no speed probe was taken")
        speed = sum(1.0 / p for p in self.took[lo:hi]) / (hi - lo)
        cpu = end[1] - start[1] - self._inside(self._cpu, t0, t1)
        return cpu * NOMINAL_S * speed
