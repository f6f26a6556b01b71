"""Interpreter-speed probe: pass times corrected for the speed of a shared CPU.

On a CPU shared with other tenants the same Python code runs up to about
1.7 times slower while a neighbour is busy, and the slow and fast phases
switch within milliseconds but can persist for whole runs.  A raw pass time
mixes the program's cost with the neighbours' load.

``SpeedProbe`` samples the speed while a pass runs: a wall-clock interval
timer interrupts the program every ``INTERVAL_S`` seconds, and the signal
handler times a fixed pure-Python loop (the probe).  The stretch of program
work between two probes is divided by the speed those probes measured,
relative to ``NOMINAL_PROBE_S``, the probe's duration on an unloaded core of
the reference machine (Intel Xeon, 2.1 GHz, Python 3.11).  The sum over a
pass is the pass's time at reference speed, in seconds.  Probe time itself
is excluded from both the raw and the normalized times.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

NOMINAL_PROBE_S = 0.000145  # the probe on an unloaded reference core
PROBE_LOOPS = 800
INTERVAL_S = 0.005
WINDOW = 5  # probes whose median speed weights the work between them
TIMES = ("wall_s", "cpu_s", "norm_wall_s", "norm_cpu_s")


def clocks() -> tuple:
    """(wall, CPU) clock readings."""
    return perf_counter(), process_time()


def _spin(loops: int) -> int:
    """Dictionary and tuple work, the kind the program's own loops do."""
    table: dict = {}
    for i in range(loops):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0) + i
    return len(table)


class SpeedProbe:
    """Times the probe on every timer tick between ``start`` and ``stop``.

    ``marks`` holds one ``(wall0, wall1, cpu0, cpu1)`` per probe: the wall
    and CPU clocks just before and just after it ran.  ``stop`` takes one
    last sample, so a stopped probe has at least one.
    """

    def __init__(self):
        self.marks: list = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        w0, c0 = clocks()
        _spin(PROBE_LOOPS)
        w1, c1 = clocks()
        self.marks.append((w0, w1, c0, c1))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick()

    def times(self, start: tuple, end: tuple) -> dict:
        """Raw and normalized wall and CPU seconds of program work between
        two ``clocks()`` readings; the probes in between are left out."""
        (wall0, cpu0), (wall1, cpu1) = start, end
        inside = [k for k, m in enumerate(self.marks) if wall0 <= m[0] and m[1] <= wall1]
        # stretches of program work: up to the first probe, between probes, after the last
        starts = [(wall0, cpu0)] + [(self.marks[k][1], self.marks[k][3]) for k in inside]
        ends = [(self.marks[k][0], self.marks[k][2]) for k in inside] + [(wall1, cpu1)]
        first = inside[0] if inside else self._nearest(wall0)
        last_window = max(len(self.marks) - WINDOW, 0)
        out = dict.fromkeys(TIMES, 0.0)
        for k, ((ws, cs), (we, ce)) in enumerate(zip(starts, ends)):
            around = self.marks[min(max(first + k - WINDOW // 2, 0), last_window):][:WINDOW]
            wall_speed = statistics.median(m[1] - m[0] for m in around) / NOMINAL_PROBE_S
            cpu_speed = statistics.median(m[3] - m[2] for m in around) / NOMINAL_PROBE_S
            out["wall_s"] += we - ws
            out["cpu_s"] += ce - cs
            out["norm_wall_s"] += (we - ws) / wall_speed
            out["norm_cpu_s"] += (ce - cs) / cpu_speed
        return out

    def _nearest(self, wall: float) -> int:
        return min(range(len(self.marks)), key=lambda k: abs(self.marks[k][0] - wall))

    def slowdown(self) -> float:
        """Median probe time over the nominal one: how loaded the CPU was."""
        return statistics.median(m[1] - m[0] for m in self.marks) / NOMINAL_PROBE_S
