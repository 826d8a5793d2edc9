"""Machine-speed correction for timings taken on a shared host.

On a small shared machine the speed of a core drifts by tens of percent
for seconds to minutes at a time, as neighbours come and go; the same
computation then takes 1.3 s in one minute and 2.2 s in the next, with
CPU time equal to wall time.  No number of repeats inside one run
removes a drift that outlasts the run.  So each timed section is also
measured against a fixed probe that runs no cocycle_lab code.  The
probe runs every `period` seconds from a timer signal while the section
runs, and each interval between two probes is scaled by how much slower
than the reference the probes around it ran.  The probes' own time is
left out of both the raw and the scaled time.

Two probes: `svd_probe` (150 numpy SVDs of one 8x8 matrix) for the
timed passes, and `loop_probe` (a pure-Python loop) for the set-up,
which must be sampled before numpy is imported.  The scaled time is the
section's time on a machine running at the reference speed.  A change
to cocycle_lab moves it as it moves the raw time; a change in the
host's speed moves it far less.

This module imports nothing heavy, so a worker can start sampling its
own set-up before it imports numpy.
"""
from __future__ import annotations

import signal
import time
from typing import Optional

SVD_PROBE_REF_S = 150 * 20e-6      # svd_probe at the reference speed: 20 us per SVD
LOOP_PROBE_REF_S = 20000 * 100e-9  # loop_probe at the reference speed: 100 ns per step

_matrix = []


def svd_probe() -> float:
    """Seconds for 150 SVDs of one fixed 8x8 matrix."""
    import numpy as np
    if not _matrix:
        _matrix.append(np.random.default_rng(0).standard_normal((8, 8)))
    t0 = time.perf_counter()
    for _ in range(150):
        np.linalg.svd(_matrix[0], compute_uv=False)
    return time.perf_counter() - t0


def loop_probe() -> float:
    """Seconds for 20000 steps of a pure-Python integer loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Sampler:
    """Raw and reference-speed seconds of the code run between start and stop.

    Also a context manager.  The timer is one-shot and re-armed after
    each probe, so a probe is never interrupted by the next one.  The
    code sampled must run in the main thread (signal handlers do) and
    must not use SIGALRM itself.
    """

    def __init__(self, probe=svd_probe, ref_s: float = SVD_PROBE_REF_S, period: float = 0.2):
        self.probe, self.ref_s, self.period = probe, ref_s, period

    def start(self, since: Optional[float] = None) -> "Sampler":
        """Begin sampling.  With `since`, a CLOCK_MONOTONIC reading, the time
        from then to now counts too, at the first probe's speed."""
        lead_s = 0.0 if since is None else time.clock_gettime(time.CLOCK_MONOTONIC) - since
        first = self.probe()
        self.intervals = [(lead_s, first, first)]     # (work seconds, probe before, probe after)
        self._before = first
        self._armed = True
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def _tick(self, *_) -> None:
        work = time.perf_counter() - self._mark
        after = self.probe()
        self.intervals.append((work, self._before, after))
        self._before = after
        self._mark = time.perf_counter()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        signal.signal(signal.SIGALRM, self._old)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def raw_s(self) -> float:
        return sum(w for w, _, _ in self.intervals)

    @property
    def scaled_s(self) -> float:
        return sum(w * 2.0 * self.ref_s / (a + b) for w, a, b in self.intervals)
