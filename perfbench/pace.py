"""Host-speed probe: verdict time scaled to a host of fixed speed.

A shared host changes speed in phases that last from seconds to minutes
(the same pure-Python loop takes from 0.20 s to 0.36 s), and a phase can
outlast a whole run, so wall time alone spreads across runs by more than
any program change worth resolving. The probe measures that speed while
the workload runs: a timer interrupts the child every PERIOD_S of wall
time, and the handler times a small fixed piece of work shaped like
confalg's inner loop (products of dict polynomials with `Fraction`
coefficients). Each interval between two probes is then scaled by
REFERENCE_S over the probe time around it:

    paced_s = sum(interval_i * REFERENCE_S / probe_i)

so a phase that slows pure Python by a factor slows the interval and the
probe alike and cancels, while a change in confalg's own work does not.
The probes' own time is taken out of the intervals. The probe work does
not touch confalg and runs with the collector off, so neither a change to
the program nor to its collector settings moves the probe.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

#: wall time between probes
PERIOD_S = 0.05
#: probe time of the host the paced seconds refer to (Python 3.11, 2 vCPUs)
REFERENCE_S = 0.002
#: probes in the running median that smooths one interrupted probe
SMOOTH = 5

_P = {(i, 3 - i, 0, 0): Fraction(i + 1, 3) for i in range(4)}
_Q = {(0, i, 5 - i, 0): Fraction(2 - i, 5) for i in range(6)}


def _probe_work():
    for _ in range(24):
        out = {}
        for ea, ca in _P.items():
            for eb, cb in _Q.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        {e: c for e, c in out.items() if c}


def probe_now(repeats=5):
    """Median probe time at this moment, for pacing a short span."""
    pace = Pace()
    for _ in range(repeats):
        pace._probe()
    return statistics.median(d for _, d in pace.marks)


class Pace:
    """Times the probe on a wall-clock timer between start() and stop()."""

    def __init__(self):
        self.marks = []  # (wall time at probe start, probe duration)
        self._old = None

    def _probe(self, signum=None, frame=None):
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.marks.append((t0, t1 - t0))

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        self.start_s = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        return self.paced_s(self.start_s, end)

    def paced_s(self, start, end):
        """Seconds from start to end, probes excluded, at reference speed."""
        durations = [d for _, d in self.marks]
        half = SMOOTH // 2
        smooth = [
            statistics.median(durations[max(0, i - half):i + half + 1])
            for i in range(len(durations))
        ]
        # interval i runs from the end of probe i to the start of probe i+1,
        # clipped to [start, end]; it is paced by the probes bounding it
        total = 0.0
        for i in range(len(self.marks) - 1):
            lo = max(start, self.marks[i][0] + durations[i])
            hi = min(end, self.marks[i + 1][0])
            if hi > lo:
                speed = (smooth[i] + smooth[i + 1]) / 2.0
                total += (hi - lo) * REFERENCE_S / speed
        return total

    def probe_stats(self):
        durations = [d for _, d in self.marks]
        return {
            "probes": len(durations),
            "probe_ms_median": 1000.0 * statistics.median(durations),
        }
