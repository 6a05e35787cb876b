"""Host-speed calibration of the benchmark's timings.

A shared two-vCPU virtual machine can drift in speed by 20-35 % over
minutes as co-tenants come and go, with no steal time to show for it, so
a pass timed on the wall clock alone tracks the host more than the
program.  While a run measures, a timer interrupts it every
:data:`PERIOD` seconds to time a fixed reference slice; the mean slice
time over an interval says how fast the host was during it, and
:meth:`HostClock.calibrated` rescales the interval's wall seconds (minus
the slices themselves) to what they would have been on a host where a
slice takes :data:`NOMINAL` seconds.  Calibrated figures are therefore in
nominal-host seconds, not wall seconds; :class:`Interval` keeps both.

A slice has two parts, because co-tenants slow the host in two ways: an
interpreter loop that stays in the core's L1 cache, and scattered reads
from a table four times the size of a core's L2 cache, so they are served
from the shared L3 whatever the program did before.  The loop alone
under-corrects: the program slows more than it does when the shared cache
is contended.  Over 4-5 minutes of 5- to 8-s windows on a shared 2-vCPU
Xeon (2 MB L2 per core), the spread (IQR/median) of items per second was
0.31 raw, 0.079 calibrated by the loop and 0.045 by both parts on
``figures-dataflow-graph``, and 0.059, 0.046 and 0.037 on ``whatif-grid``.
On ``service-mixed`` the slices run in the client while the job server,
a child process on the same machine, runs the program; there the spread
was 0.088 raw, 0.077 and 0.044.

From one run to the next the program still moves more than the slice:
fitted over 20 runs per workload (10 on ``service-mixed``), the
elasticity of items per second to slice speed was 1.7-1.85 on the
in-process workloads and 1.25 on ``service-mixed``.  So the rescaling
raises the slice speed to the power :data:`ELASTICITY`; between two sets
of ten runs, 20 minutes apart, that cut the drift of the median items per
second on the in-process workloads from 11-20 % to 2-10 %.

The slice is timed in the main thread's CPU time, after a short warm-up
of the loop, so that the program cannot pass its own costs off as a slow
host: time the main thread waits for the GIL held by one of the program's
threads, or loses to another process, does not lengthen a slice.  What
the slices cannot see is CPU the program spends outside the main thread;
:class:`Interval` reports it so that a run can flag it.  The slice
allocates nothing the garbage collector tracks, so it never pays for a
collection of the program's objects.
"""

from __future__ import annotations

import signal
import threading
import time

#: Seconds between slices: about 2 % of the run goes to calibration.
PERIOD = 0.04
#: Trips of the slice's interpreter loop and of its scattered reads.
LOOP_TRIPS = 3000
READ_TRIPS = 1000
#: Untimed loop trips before each slice.
WARMUP = 300
#: Floats in the table the reads visit: about 8 MB with the list.
TABLE_SIZE = 1 << 18
#: Odd multiplier that scatters consecutive reads over the table.
STRIDE = 40503
#: Slice CPU time of the nominal host the calibrated seconds refer to.
NOMINAL = 0.0007
#: Power of the slice speed by which wall seconds are rescaled.
ELASTICITY = 1.5
#: Fewest slices a speed estimate uses.
LEAST = 10
#: CPU outside the main thread, as a share of an interval's wall time,
#: above which the interval is flagged.
CONTENDED = 0.02


class ReferenceSlice:
    """The fixed work a host-speed sample times."""

    def __init__(self) -> None:
        self.table = [float(i) for i in range(TABLE_SIZE)]
        self.cursor = 0

    def __call__(self, loop: int = LOOP_TRIPS, reads: int = READ_TRIPS) -> float:
        total = 0
        for i in range(loop):
            total += i * i % 7
        table, mask, start = self.table, TABLE_SIZE - 1, self.cursor
        self.cursor = (start + reads) & mask
        for i in range(start, start + reads):
            total += table[(i * STRIDE) & mask]
        return total


class HostClock:
    """Timer-driven reference slices, kept as (wall start, wall end, main
    thread CPU seconds of the timed part) triples."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._slice = ReferenceSlice()
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self._slice(loop=WARMUP, reads=0)
        cpu = time.thread_time()
        self._slice()
        cpu = time.thread_time() - cpu
        self.samples.append((started, time.perf_counter(), cpu))

    def start(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _inside(self, start: float, end: float) -> list[tuple[float, float, float]]:
        return [s for s in self.samples if start <= s[0] and s[1] <= end]

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` relative to the nominal host,
        from the slices inside it, or from the :data:`LEAST` slices nearest
        its middle when it holds fewer."""
        inside = self._inside(start, end)
        if len(inside) < LEAST:
            middle = (start + end) / 2
            inside = sorted(self.samples,
                            key=lambda s: abs(s[0] + s[1] - 2 * middle))[:LEAST]
        if not inside:
            raise ValueError("the host clock has no slices yet")
        return NOMINAL * len(inside) / sum(cpu for _, _, cpu in inside)

    def calibrated(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken on the nominal host,
        the slices inside it excluded."""
        busy = sum(e - s for s, e, _ in self._inside(start, end))
        return (end - start - busy) * self.speed(start, end) ** ELASTICITY


class Interval:
    """Times a ``with`` block: wall seconds, calibrated seconds (the wall
    seconds when there is no clock), and the CPU seconds the process spent
    outside the main thread, which calibration cannot see."""

    def __init__(self, clock: HostClock | None = None) -> None:
        self.clock = clock
        self.start = self.end = self.wall = self.seconds = 0.0
        self.other_cpu = 0.0
        self.threads = 1

    def __enter__(self) -> "Interval":
        self._cpu = time.process_time() - time.thread_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self.other_cpu = max(0.0, time.process_time() - time.thread_time()
                             - self._cpu)
        self.threads = threading.active_count()
        self.between(self.start, end)
        return False

    def between(self, start: float, end: float) -> "Interval":
        """Set the interval to ``[start, end]`` (CPU is not measured)."""
        self.start, self.end, self.wall = start, end, end - start
        self.seconds = (self.clock.calibrated(start, end)
                        if self.clock is not None else self.wall)
        return self

    @property
    def contended(self) -> bool:
        """True when the program ran threads or used CPU beside the main
        thread, so calibrated seconds may understate its cost."""
        return self.threads > 1 or self.other_cpu > CONTENDED * self.wall
