"""Machine-speed probe: a fixed computation timed at regular intervals.

The benchmark shares a small machine whose speed drifts with other tenants'
load, by up to 1.8x for half a minute at a time. A timer signal interrupts
the run every `INTERVAL_S` and times `kernel`, which does the same kind of
work as the package's hot path: a box-clipped Nelder-Mead search over three
parameters of a weighted least-squares objective on small NumPy arrays. It is
the benchmark's own code, so no change to the package moves it. A task's time,
less the probe's own, is divided by the probe's slowdown (kernel time over
`REFERENCE_S`) moment by moment, which gives seconds at the reference speed.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
WINDOW_S = 0.6  # about five samples around a moment
# Median time of `kernel` on a quiet 2-core Intel Xeon (Python 3.11, NumPy 2.4).
REFERENCE_S = 0.0026

_X = np.linspace(-1.0, 1.0, 7)
_BASIS = np.vander(_X, 3, increasing=True)
_Y = _X ** 3
_W = np.full(7, 1.0 / 7.0)
_LOWER, _UPPER = np.full(3, -5.0), np.full(3, 5.0)


def _objective(beta) -> float:
    resid = _Y - _BASIS @ beta
    return float(_W @ (resid * resid))


def kernel() -> float:
    """Minimize the fixed objective from a fixed start; return the minimum."""
    simplex = np.array([[0.3, 0.2, -0.3], [0.8, 0.2, -0.3],
                        [0.3, 0.7, -0.3], [0.3, 0.2, 0.2]])
    values = np.array([_objective(p) for p in simplex])
    for _ in range(150):
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]
        centroid = simplex[:-1].mean(axis=0)
        reflected = np.clip(2.0 * centroid - simplex[-1], _LOWER, _UPPER)
        f_reflected = _objective(reflected)
        if f_reflected < values[0]:
            expanded = np.clip(3.0 * centroid - 2.0 * simplex[-1], _LOWER, _UPPER)
            f_expanded = _objective(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            contracted = 0.5 * (centroid + simplex[-1])
            f_contracted = _objective(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                simplex[1:] = 0.5 * (simplex[0] + simplex[1:])
                values[1:] = [_objective(p) for p in simplex[1:]]
    return float(values.min())


def at_reference_speed(seconds: float) -> float:
    """Scale seconds just measured by the probe's slowdown right after them."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return seconds * REFERENCE_S / statistics.median(times)


class SpeedProbe:
    """Samples the machine's speed on a timer while active (`with probe:`),
    and once on entering and once on leaving, so every interval measured
    inside has a sample within `INTERVAL_S`."""

    def __init__(self):
        self.samples = []  # (start, end) of each kernel run
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe itself took within [start, end]."""
        return sum(e - s for s, e in self.samples if start <= s and e <= end)

    def normalize(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the interval [start, end].

        The interval, less the probe's own runs inside it, is cut at those
        runs. Each piece is scaled by the median kernel time sampled within
        `WINDOW_S` of its middle, so a slowdown that starts or ends inside
        a long task is weighted by how long it lasted.
        """
        starts = [s for s, _ in self.samples]
        inside = self.samples[bisect.bisect_left(starts, start):
                              bisect.bisect_left(starts, end)]
        edges = [start, *(t for sample in inside for t in sample), end]
        return sum(max(0.0, b - a) * REFERENCE_S / self._local_time(starts, 0.5 * (a + b))
                   for a, b in zip(edges[0::2], edges[1::2]))

    def _local_time(self, starts, t: float) -> float:
        near = self.samples[bisect.bisect_left(starts, t - WINDOW_S):
                            bisect.bisect_right(starts, t + WINDOW_S)]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t))]
        return statistics.median(e - s for s, e in near)
