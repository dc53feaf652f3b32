"""Host-speed sampling, so timings on a shared host can be compared.

A small VM's speed swings with its neighbours by up to 1.7x, within a second
and in phases that can last longer than a run. While a piece of work is
timed, an interval timer interrupts it every `INTERVAL_S` seconds to run a
fixed probe that never changes with the program. The probe mixes the kinds
of work the package does: pure-Python set arithmetic, a small
single-threaded matrix product, and vectorised boolean tests over a clip
array. The probes sample how fast the host runs at the same moments
as the work, and the work's time is scaled by them:

    scaled_s = (wall_s - probe time) * NOMINAL_S / mean(probe times)

A scaled time is the time the work would have taken with the host at the
reference speed. The probes take about 3% of the wall time; spans of a
traced run include them. Wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

perf = time.perf_counter

INTERVAL_S = 0.03
# median probe time on the reference host (2-vCPU KVM guest, Python 3.11,
# numpy 2.4, one BLAS thread), between slices of the package's work
NOMINAL_S = 0.001

_rng = np.random.default_rng(20250428)
_A = _rng.random((16, 39))
_B = _rng.random((39, 64))
_X = (_rng.random((1500, 7, 13)) < 0.3).astype(np.uint8)
_REQ = np.array([1, 4, 7])


def probe() -> float:
    """Wall seconds of the fixed probe."""
    t0 = perf()
    total = 0
    for i in range(400):
        cells = {(i % 3, j) for j in range(i % 7)}
        total += len(cells | {(1, 2)})
    for _ in range(8):
        total += int((_A @ _B).sum() > 0)
    for c in range(4):
        hit = (_X[:, c, _REQ] == 1).all(axis=1) & (_X[:, c + 1] > 0).any(axis=1)
        total += int(hit.sum())
    return perf() - t0


class Clock:
    """Times callables with the host-speed probe running alongside."""

    def __init__(self):
        self.probes: list[float] = []

    def time(self, fn) -> tuple[object, float, float]:
        """(result, wall seconds, scaled seconds) of `fn()`."""
        samples: list[float] = []

        def on_alarm(_signum, _frame):
            samples.append(probe())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = perf() - t0
            signal.signal(signal.SIGALRM, previous)
        work = wall - sum(samples)
        if not samples:  # shorter than one interval: probe once after it
            samples.append(probe())
        self.probes.extend(samples)
        return result, wall, work * NOMINAL_S / statistics.fmean(samples)

    def median_scaled(self, fn, repeats: int) -> tuple[float, object]:
        """Median scaled time of `repeats` calls of `fn`, and the last result."""
        timed = [self.time(fn) for _ in range(repeats)]
        return statistics.median(s for _, _, s in timed), timed[-1][0]

    def speed(self) -> float:
        """Median host speed of the run, relative to the reference speed."""
        return NOMINAL_S / statistics.median(self.probes) if self.probes else 1.0
