"""Core-speed sampling, so that a time can be read at a reference speed.

On a shared machine the speed of one core can change by a factor of two
within seconds, as other tenants come and go.  A benchmark child therefore
samples its own speed while it works: every INTERVAL_S of its CPU time,
SIGPROF runs a fixed pure-Python kernel twice and records how long the
second run took.  A time measured over a window converts to the reference
speed -- the speed at which the kernel takes NOMINAL_S -- by multiplying
it by NOMINAL_S over the kernel's mean duration in the window and
dropping the sampling's own cost, SAMPLE_COST_S per sample.  The package
is never told about any of this.

The kernel shares the process with the program it times, so it is kept
away from the program's state.  It allocates no object that the cyclic
garbage collector counts, so no collection can start inside it, and it
touches only a 64-slot list of its own.  Its first, untimed run pays for
the caches the program left cold; a program with a larger heap slows
that run, and would otherwise slow the yardstick along with itself.
"""

from __future__ import annotations

import signal
import time

NOMINAL_S = 100e-6   # the kernel's duration at the reference speed
SAMPLE_COST_S = 2 * NOMINAL_S  # one sample's two kernel runs at that speed
INTERVAL_S = 0.01    # CPU time between samples; sampling costs about 2% of it
# A CLI command lives for about 0.1 s of CPU time, too short for a steady
# factor at INTERVAL_S; it samples five times as often, at about 10% cost.
CLI_INTERVAL_S = 0.002


_CELLS = [0] * 64


def kernel() -> int:
    """Interpreter-bound work of fixed size: integer arithmetic and list stores."""
    x = 0
    cells = _CELLS
    for i in range(600):
        x = (x * 31 + i) % 1000003
        cells[i & 63] = x ^ i
    return x


def speed_factor(durations) -> float:
    """NOMINAL_S times the 10%-trimmed mean of 1/duration: multiply a time
    measured at the sampled speed by this to read it at the reference speed."""
    inv = sorted(1.0 / d for d in durations)
    if not inv:
        raise ValueError("no speed samples: the process ran under 10 ms of CPU time")
    k = len(inv) // 10
    core = inv[k:len(inv) - k]
    return NOMINAL_S * sum(core) / len(core)


def reference_time(raw_s: float, samples: int, factor: float) -> float:
    """raw_s, which holds `samples` speed samples, at the reference speed.

    Each sample is dropped at its nominal cost rather than its measured
    duration, so a slow outlier (a page fault, a preempted core) stays
    counted as the program's time, as it is in the raw time.
    """
    return raw_s * factor - samples * SAMPLE_COST_S


class Sampler:
    """SIGPROF-driven samples of (start time, kernel duration) for one process."""

    def __init__(self, interval_s: float = INTERVAL_S, clock=time.perf_counter):
        self.interval_s = interval_s
        self.clock = clock
        self.samples: list[tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, _signum, _frame) -> None:
        kernel()
        t = self.clock()
        kernel()
        self.samples.append((t, self.clock() - t))

    def window(self, t0: float, t1: float) -> list[float]:
        return [d for t, d in self.samples if t0 <= t <= t1]

    def reference(self, t0: float, t1: float) -> tuple[float, float]:
        """(time at reference speed, speed factor) of the window [t0, t1].

        A window too short to hold a sample borrows the speed of the whole
        process so far.
        """
        inside = self.window(t0, t1)
        factor = speed_factor(inside or [d for _, d in self.samples])
        return reference_time(t1 - t0, len(inside), factor), factor

