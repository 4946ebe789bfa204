"""Host-speed sampling: express wall time at one fixed host speed.

The sandbox this ledger runs in changes speed under the benchmark: a vCPU
runs pure-Python code ~1.3x slower whenever its neighbour on the physical
core is busy, and flips between the two states every 1-40 s.  Ten runs of
one unchanged 15 s workload then spread by ~20% of their median, wider
than any regression bound the contract allows (0.25).  The simulator and a
trivial interpreter loop slow by the same factor (1.30 vs 1.29, measured
per state), so the loop works as a speedometer:

* a ``SIGALRM`` interval timer runs a fixed calibration loop every
  ``INTERVAL_S`` *inside the measuring thread* (Python signal handlers run
  on the main thread between bytecodes), recording ``(start, duration)``;
* a timed region ``[t0, t1]`` is then reported as
  ``(wall - calibration time inside) * NOMINAL_CAL_S / mean(duration)``:
  the seconds the work would have taken on a host on which the loop takes
  ``NOMINAL_CAL_S``.

``NOMINAL_CAL_S`` is a constant of the benchmark (this machine's unloaded
time for the loop), so corrected seconds compare across runs and commits;
``bench.host_speed`` reports the mean correction factor, and the raw wall
time is always printed beside the corrected one.  Time spent sleeping or
in another process does not scale with this thread's speed: workloads
dominated by it (``serve_mix``) are reported raw, and so are the traced
run's per-layer self times (they exclude the slices but are not rescaled).
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

#: Seconds between calibration slices.
INTERVAL_S = 0.05
#: Iterations of the calibration loop (about 1.5 ms per slice, 3% of the time).
CAL_ITERS = 40_000
#: Duration of one slice on the reference host state (unloaded core of the
#: machine the ledger was defined on); the unit of "nominal-speed seconds".
NOMINAL_CAL_S = 0.00148


def _calibration_loop(n: int = CAL_ITERS) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class SpeedSampler:
    """Interval-timer speedometer for the main thread."""

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter) -> None:
        self.interval = interval
        self.clock = clock
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: Called with each slice's duration (the tracer uses it to keep
        #: calibration time out of whatever span the timer interrupted).
        self.on_slice = None
        self._previous = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.sample()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        t0 = self.clock()
        _calibration_loop()
        duration = self.clock() - t0
        self.starts.append(t0)
        self.durations.append(duration)
        if self.on_slice is not None:
            self.on_slice(duration)

    # -- queries ---------------------------------------------------------
    def window(self, t0: float, t1: float) -> Tuple[float, float]:
        """``(calibration seconds inside [t0, t1], mean slice duration)``.

        The mean is taken over the slices that started inside the window
        plus the nearest one on either side, so a region shorter than the
        sampling interval still sees the speed around it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(self.durations[lo:hi])
        first = max(0, lo - 1)
        last = min(len(self.durations), hi + 1)
        around = self.durations[first:last]
        if not around:
            return 0.0, NOMINAL_CAL_S
        return inside, sum(around) / len(around)

    def corrected(self, t0: float, t1: float) -> float:
        """``[t0, t1]`` in nominal-speed seconds."""
        inside, mean = self.window(t0, t1)
        return max(0.0, (t1 - t0) - inside) * NOMINAL_CAL_S / mean

    def host_speed(self) -> float:
        """Mean slice duration / nominal: > 1 means a slower host."""
        if not self.durations:
            return 1.0
        return sum(self.durations) / len(self.durations) / NOMINAL_CAL_S


class NoCorrection:
    """Stand-in for workloads reported raw."""

    def start(self) -> "NoCorrection":
        return self

    def stop(self) -> None:
        pass

    def corrected(self, t0: float, t1: float) -> float:
        return t1 - t0

    def host_speed(self) -> float:
        return 1.0
