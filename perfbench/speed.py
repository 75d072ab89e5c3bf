"""Machine-speed sampling, so that pass times compare across a shared host.

On a shared host the same pass can take 1.5 to 1.7 times longer while other
tenants load the core, and the load changes within seconds.  While a pass
runs, SIGALRM fires every INTERVAL_S and the handler times a fixed kernel of
exact arithmetic and dict work, the same kind of work the engine does.  The
pass's speed factor is the mean kernel time over REFERENCE_KERNEL_S; the
pass's wall time divided by that factor is its time at the reference speed.
The kernel is part of the benchmark, not of the engine.  It shares the
engine's heap and caches; README.md records the check that a larger heap did
not move the factor.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from math import gcd

INTERVAL_S = 0.05
# Kernel time on an unloaded core of a 2-vCPU x86-64 VM at 2.0 GHz, CPython 3.11.
REFERENCE_KERNEL_S = 0.00035


def kernel() -> int:
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[(i * 7919) % 10007] = gcd(i, 360360)
    return acc.denominator + len(table)


class SpeedSampler:
    """Context manager: samples the kernel time before, during and after a block."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the engine's heap is not the kernel's time
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def factor(self) -> float:
        """How many times slower than the reference the host ran the block."""
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S
