"""Host-speed calibration: CPU seconds scaled to a reference host speed.

On a shared host the same single-threaded work takes from about 0.8x
to 1.3x its usual CPU time as neighbours come and go, and the speed
changes from one second to the next.  A :class:`Probe` samples that
speed all through the measured work: a profiling timer interrupts the
program every :data:`INTERVAL_S` of CPU time, and the handler times a
short fixed kernel.  A span of work is scaled by ``REFERENCE_S /``
the mean kernel time of the samples taken during it (and up to
:data:`WINDOW_S` either side, so that short spans see enough samples).

Times are read on :func:`cpu`, this thread's CPU seconds with the
probe's own excluded.  (While a process-wide CPU timer is armed, Linux
updates the process CPU clock only at scheduler ticks; the thread clock
stays exact.  The program runs single-threaded here.)
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List

#: CPU seconds between samples.
INTERVAL_S = 0.025
#: Mean kernel CPU seconds at the reference speed (a kernel call costs
#: 0.7 to 1.0 ms on a 2-vCPU Xeon VM).
REFERENCE_S = 0.0008
#: CPU seconds either side of a span whose samples also count for it.
WINDOW_S = 0.25

_at: List[float] = []        # cpu() reading of each sample
_kernel_s: List[float] = []  # kernel CPU seconds of each sample
_spent = 0.0                 # CPU seconds spent in the probe
_busy = False


def cpu() -> float:
    """This thread's CPU seconds, the probe's own excluded."""
    return time.thread_time() - _spent


def _kernel() -> int:
    """Interpreter-bound integer and dict work, like the program's."""
    total, table = 0, {}
    for i in range(6000):
        total += (i * i) % 7
        table[i & 1023] = total
    return total


def _sample(signum: int, frame: object) -> None:
    global _spent, _busy
    if _busy:
        return
    _busy = True
    t0 = time.thread_time()
    _kernel()
    took = time.thread_time() - t0
    _at.append(t0 - _spent)
    _kernel_s.append(took)
    _spent += took
    _busy = False


class Probe:
    """Samples host speed while armed (``with Probe() as probe:``)."""

    def __enter__(self) -> "Probe":
        del _at[:], _kernel_s[:]
        self._previous = signal.signal(signal.SIGPROF, _sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.at, self.kernel_s = list(_at), list(_kernel_s)

    def factor(self, start: float = float("-inf"),
               end: float = float("inf")) -> float:
        """Reference speed over host speed during ``[start, end]`` on
        the :func:`cpu` clock (by default the whole armed period)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo >= hi:
            raise RuntimeError("host-speed probe took no samples")
        return REFERENCE_S * (hi - lo) / sum(self.kernel_s[lo:hi])
