"""A reference clock: the host's current speed, sampled between slices of a run.

The benchmark host is a shared virtual machine whose speed drifts by up to
a factor of two over seconds to minutes, so a raw wall time mostly measures
the neighbours. ``RefClock.start`` arms a one-shot ``ITIMER_PROF`` timer;
each time the process has used ``INTERVAL_S`` of CPU, the signal handler
runs one slice of a fixed pure-Python kernel, times it, and re-arms the
timer. The slices thus sample the host's speed throughout the run, at the
same moments and on the same CPU as the work they are interleaved with.

``speed`` over a window is the mean slice time divided by ``NOMINAL_SLICE_S``
(above 1 when the host is slower than the reference). A time divided by it
is in reference seconds: what it would have taken on a host that runs a
slice in ``NOMINAL_SLICE_S``. Slice time is subtracted from the window
before that, so the work itself is what is measured.

The kernel is pure Python, so the clock can run before numpy is imported
and set-up can be measured with it. A slice is skipped while the process has
live child processes (a pool's workers), because it would then measure the
contention with them rather than the host. Interval timers are not inherited
across ``fork``, so the workers never run slices either; their time is
normalised with the speed the parent saw between its pools in the same run.
"""

from __future__ import annotations

import signal
import sys
import time

INTERVAL_S = 0.04  # process CPU time between slices
NOMINAL_SLICE_S = 0.004  # one slice on the reference host; fixes the unit, never change it
_SLICE_LOOPS = 16000


def reference_slice() -> int:
    """A fixed mix of integer arithmetic, dict stores, list and float work."""
    acc = 0
    table = {}
    items = []
    x = 1.0
    for i in range(_SLICE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        items.append(x)
        x = x * 1.0000001 + 0.5
    return acc + len(items) + len(table)


class RefClock:
    """Interleaves reference slices with the process's own work and totals them."""

    def __init__(self):
        self.slices = 0
        self.slice_wall_s = 0.0
        self.slice_cpu_s = 0.0
        self._armed = False

    def _run_slice(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_slice()
        self.slice_wall_s += time.perf_counter() - wall0
        self.slice_cpu_s += time.process_time() - cpu0
        self.slices += 1

    def _on_signal(self, signum, frame) -> None:
        if not self._armed:
            return
        multiprocessing = sys.modules.get("multiprocessing")
        if multiprocessing is None or not multiprocessing.active_children():
            self._run_slice()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def start(self) -> None:
        self._armed = True
        signal.signal(signal.SIGPROF, self._on_signal)
        self._run_slice()  # every window holds at least one slice
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._run_slice()

    def mark(self) -> tuple[int, float, float]:
        return self.slices, self.slice_wall_s, self.slice_cpu_s


def window(before: tuple[int, float, float], after: tuple[int, float, float]) -> dict:
    """Slices, their wall and CPU time, and the host speed between two marks."""
    slices = after[0] - before[0]
    wall = after[1] - before[1]
    return {
        "slices": slices,
        "slice_wall_s": wall,
        "slice_cpu_s": after[2] - before[2],
        "speed": wall / slices / NOMINAL_SLICE_S if slices else float("nan"),
    }
