"""A reference clock for the host's speed, sampled while the program runs.

The benchmark shares its host, whose speed drifts by up to 40% within
minutes: the same pure-Python loop takes 67 ms at one moment and 98 ms the
next, and process CPU time drifts with wall time, so neither clock alone
gives a steady figure.  A fixed reference kernel (pure-Python float
arithmetic plus small numpy array work, nothing from orbtour) is timed at the
start of every timed call and every ``interval`` seconds inside it, from a
SIGALRM handler that runs in the benchmark's own thread between bytecodes.
Its time is taken out of the call's time.  A round's time divided by the mean
kernel time sampled during that round is the round's time in reference
units, which host drift moves far less than seconds, while a slower or faster
program moves it in full.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: seconds of program time between two kernel samples inside a call
INTERVAL_S = 0.5

_rng = np.random.default_rng(20241118)
_KEYS = _rng.random((64, 14))
_TABLE = _rng.random(4096)
_ANGLES = _rng.random((256, 6))


def reference_kernel() -> float:
    """35-55 ms of work on a 2-CPU Xeon host, half interpreter, half numpy."""
    s = 0.0
    for i in range(100000):
        s += math.sqrt(i * 1.5 + 1.0) * math.cos(i * 1e-3)
    for _ in range(600):
        s += float(np.take(_TABLE, np.argsort(_KEYS, axis=1)).sum())
        s += float(np.sin(_ANGLES).sum())
    return s


class HostClock:
    """Times :func:`reference_kernel` while timed calls run.

    ``install`` takes SIGALRM for the clock until ``uninstall``; ``running``
    wraps one timed call.  ``samples`` holds every kernel time and ``spent``
    their sum, which the caller subtracts from the call's time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._active = False
        self._previous = None

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def uninstall(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return   # an alarm that fired as the call ended
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    @contextmanager
    def running(self):
        """Sample once, then every ``interval`` seconds until the block ends."""
        self.sample()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            yield
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def in_reference_units(seconds: float, samples: list[float]) -> float:
    """``seconds`` of program time over the mean kernel time beside it."""
    return seconds / statistics.fmean(samples)
