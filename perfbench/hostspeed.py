"""Host-speed sampling: rescales job times to a nominal host speed.

On a shared machine the speed of the CPU this process gets changes by up
to 1.7x from one moment to the next, often within a single job, and whole
minutes run fast or slow, so raw wall times of the same jobs move far more
between runs than any change worth catching.  While a Sampler is active, a
timer signal interrupts the process every INTERVAL_S of wall time and runs
a fixed pure-Python probe (tuple keys into a dict, the shape of the scalar
layer's sparse polynomials) that never touches qweyl.  A job's wall time,
less the probes that ran inside it, is rescaled by NOMINAL_PROBE_S over
the mean time of those probes (for a job too short to contain one, the
probes just before and just after it).  The result reads as seconds on a
host where the probe takes NOMINAL_PROBE_S.  A change to qweyl moves the
rescaled times exactly as it moves the raw ones; a slow period of the host
slows the probes as well and cancels.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
# Near the probe's time on an Intel Xeon at 2.1 GHz (2 vCPUs) in a fast
# period, so rescaled times read close to the raw ones there.
NOMINAL_PROBE_S = 0.0002

_KEYS = [(i % 5, i % 7 - 3, i % 3) for i in range(64)]


def _probe() -> None:
    out: dict = {}
    for a in _KEYS[:16]:
        for b in _KEYS:
            e = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[e] = out.get(e, 0) + a[1] * b[2]


class Sampler:
    """Context manager that probes the host every INTERVAL_S while active.

    One probe is also taken on entry and one on exit, so every job run
    inside the block lies between two probes.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        # The collector is off so that a collection of the caller's objects
        # is never charged to a probe; the probe frees what it allocates.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        self.samples.append((start, time.perf_counter()))
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def rescale(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """(wall, rescaled) time of each job (start, end), probes taken out."""
        starts = [a for a, _ in self.samples]
        walls, times = [], []
        for start, end in spans:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            inside = self.samples[lo:hi]
            wall = end - start - sum(b - a for a, b in inside)
            near = inside or self.samples[max(lo - 1, 0):lo + 1]
            probe = statistics.fmean(b - a for a, b in near)
            walls.append(wall)
            times.append(wall * NOMINAL_PROBE_S / probe)
        return walls, times
