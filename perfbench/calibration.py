"""Machine-speed calibration.

On a shared host the same op can take anywhere from 0.6x to 1.6x its usual
wall time, depending on what the neighbours run, and the per-run median of
raw wall time spread 15-20% between 35-second runs, wider than any bound
worth enforcing. The benchmark therefore times
a fixed kernel, whose code never changes with the program, before and after
each op and every ``SAMPLE_EVERY_S`` seconds during it, and rescales the
op's wall time by how fast the kernel ran meanwhile:

    normalized_s = wall_s * REFERENCE_S / mean(kernel_s)

so a reading is in seconds at the machine speed at which the kernel takes
``REFERENCE_S``. The kernel does the kind of work the ops do: per-row
updates of a small network on tiny numpy arrays, plus float-to-text
formatting. Time spent in kernel samples is excluded from the op's wall
time, and raw wall times are recorded next to the normalized ones.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# A unit for the normalized readings, not a target: close to the kernel's
# time on the reference machine (2-vCPU Intel Xeon VM, Python 3.11.7, numpy
# 2.4.6), where 2,700 samples over thirty 35-second runs had a median of
# 11.4 ms and ranged from 6 to 23 ms.
REFERENCE_S = 0.01

SAMPLE_EVERY_S = 0.5

# Each sample is the fastest of a few kernel runs, which drops one-off pauses.
_REPEATS = 3


def _kernel(X: np.ndarray, y: np.ndarray) -> int:
    rng = np.random.default_rng(7)
    w1, b1 = rng.uniform(-0.3, 0.3, (4, X.shape[1])), np.zeros(4)
    w2, b2 = rng.uniform(-0.3, 0.3, (1, 4)), np.zeros(1)
    for _epoch in range(6):
        for p in range(X.shape[0]):
            h = 1.0 / (1.0 + np.exp(-(w1 @ X[p] + b1)))
            d = w2 @ h + b2 - y[p : p + 1]
            dh = (w2.T @ d) * h * (1.0 - h)
            w2 -= 0.05 * np.outer(d, h)
            b2 -= 0.05 * d
            w1 -= 0.05 * np.outer(dh, X[p])
            b1 -= 0.05 * dh
    text = [",".join(f"{v:.6g}" for v in (X * k).ravel()) for k in range(1, 5)]
    return sum(len(t) for t in text)


class Calibrator:
    """Collects kernel samples and a clock that leaves their time out."""

    def __init__(self) -> None:
        rng = np.random.default_rng(11)
        self.X = rng.standard_normal((48, 9))
        self.y = rng.standard_normal(48)
        self.samples: list = []
        self._paused = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        best = float("inf")
        for _ in range(_REPEATS):
            run_started = time.perf_counter()
            _kernel(self.X, self.y)
            best = min(best, time.perf_counter() - run_started)
        self.samples.append(best)
        self._paused += time.perf_counter() - started

    def now(self) -> float:
        """perf_counter() minus the time spent taking samples."""
        while True:
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:  # no sample ran between the two reads
                return now - paused

    def normalized(self, wall_s: float, first_sample: int) -> float:
        """``wall_s`` rescaled by the samples from ``first_sample`` on."""
        kernel = self.samples[first_sample:]
        return wall_s * REFERENCE_S * len(kernel) / sum(kernel)

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every SAMPLE_EVERY_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
