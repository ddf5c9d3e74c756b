"""Host speed probe, for timings that hold steady on a shared machine.

On a small virtual machine that shares its host, the speed of pure-Python
code moves by 20-40% with the load of other guests, in phases from seconds
to minutes long, and a 20 s run cannot average that out. So the benchmark
times a fixed reference computation while the program runs: plain Python
float arithmetic of about a millisecond, independent of cutinsim. A SIGALRM
timer interrupts the workload every PERIOD_S to run it. A call's time is
then reported two ways:

- raw: its wall time minus the probes that ran inside it;
- normalised: the raw time scaled by (NOMINAL_S / p) ** exponent, where p
  is the median probe time within CONTEXT_S of the call and exponent is how
  strongly the workload's time follows the probe's (see workloads.py).

The probe has to show the host's speed and not the program's, so:

- It works on a few local names and one 64-slot list, and creates no
  container objects. Its data and the interpreter code it runs stay in the
  first-level caches, so the program's memory footprint does not move it,
  and it never triggers a garbage collection, whose cost would depend on
  the program's heap.
- It is skipped while the process has a child process, so it never competes
  for a CPU with worker processes the program started. Timers are not
  inherited by forked children, so workers are never interrupted either.

Workloads that run worker processes for nearly the whole call are not
probed at all. Only ratios of normalised times between
commits mean something. The probe costs about 2% of the run.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import time

PERIOD_S = 0.05
# A fixed scale for normalised times, about the probe's time on an idle
# 2-vCPU Intel Xeon virtual machine. Changing it changes every normalised
# figure, so results before and after the change stop being comparable.
NOMINAL_S = 0.001
CONTEXT_S = 0.25  # probes up to this far outside a call also describe it


def reference_work(seen: list) -> float:
    """A fixed mix of float arithmetic, branches, calls and list stores."""
    acc = 0.0
    x, v, ox = 0.0, 30.0, 40.0
    for i in range(1500):
        gap = ox - x - 5.0
        ttc = gap / (v - 20.0) if v > 20.000001 else math.inf
        a = -3.0 if ttc < 4.0 else 0.5
        x = x + v * 0.05 + 0.5 * a * 0.0025
        v = max(v + a * 0.05, 0.0)
        ox += 1.0
        seen[i & 63] = ttc
        acc += min(ttc, 100.0)
    return acc


def has_children() -> bool:
    """Whether any thread of this process has a child process."""
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                if fh.read().strip():
                    return True
    except OSError:
        pass
    return False


class HostSpeed:
    """Samples host speed with the probe while started."""

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.ends: list[float] = []  # perf_counter at each probe's end
        self.durations: list[float] = []
        self.skipped = 0  # ticks with a child process alive
        self._seen = [0.0] * 64

    def _probe(self, signum, frame) -> None:
        if has_children():
            self.skipped += 1
            return
        start = time.perf_counter()
        reference_work(self._seen)
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def times(self, start: float, end: float) -> tuple[float, float]:
        """(raw, normalised) seconds of a call that ran from start to end."""
        i, j = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        raw = (end - start) - sum(self.durations[i:j])
        k = bisect.bisect_left(self.ends, start - CONTEXT_S)
        m = bisect.bisect_right(self.ends, end + CONTEXT_S)
        around = self.durations[k:m] or self.durations
        if not around:  # a run shorter than one probe period
            return raw, raw
        return raw, raw * (NOMINAL_S / statistics.median(around)) ** self.exponent
