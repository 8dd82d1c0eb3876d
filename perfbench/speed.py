"""Core-speed probe: rescales wall times to a core of fixed speed.

On a shared host each virtual CPU's speed changes by up to ~1.6x every few
seconds, and the virtual CPUs change independently of each other, so a
timing taken over a few seconds moves with the host more than with the
program.  ``SpeedProbe`` runs a small fixed kernel in the measured thread
itself: at the start and end of each timed block and, from a SIGALRM timer,
every ``INTERVAL_S`` in between.  The kernel's CPU time in that thread tracks
the speed of the core the thread is running on at that moment.

A timed block is reported as its wall time less the probe's own CPU time,
times the mean over its probes of ``NOMINAL_S / kernel time``: the seconds
the block would take on a core where the kernel takes ``NOMINAL_S``.  The
kernel uses no propest code, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.01
# Median kernel time inside the workloads on the 2-vCPU virtual machine the
# benchmark was written on; it sets only the scale of the rescaled figures.
NOMINAL_S = 0.00025

_ARRAY = np.random.default_rng(0).random(256)


def kernel() -> float:
    """Thread CPU seconds of one fixed piece of Python and small-array numpy work.

    The mix mirrors propest's inner loops (bytecode, dict building, many
    numpy calls on short arrays) with a working set that stays in cache, so
    the program's own memory traffic does not slow the probe.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(1500):
        acc += i * i
    acc += sum(dict.fromkeys(range(300), 1).values())
    for _ in range(30):
        acc += float(np.log1p(_ARRAY).sum())
    return time.thread_time() - t0


def speed_factor(kernel_times) -> float:
    """Mean of ``NOMINAL_S / kernel time``: nominal seconds per wall second."""
    return statistics.fmean(NOMINAL_S / cpu for cpu in kernel_times)


def rescale(start: float, end: float, samples: list) -> float:
    """Seconds the block ``[start, end]`` takes on a core of nominal speed."""
    own = sum(cpu for a, b, cpu in samples if a >= start and b <= end)
    return (end - start - own) * speed_factor(cpu for _, _, cpu in samples)


class SpeedProbe:
    """Use as ``with probe.running(): with probe.timed(times): ...``."""

    def __init__(self) -> None:
        # (wall start, wall end, kernel CPU seconds) of every probe
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        # An alarm that lands inside a probe would add its kernel to this one.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            cpu = kernel()
            self.samples.append((t0, time.perf_counter(), cpu))
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def timed(self, into: list):
        """Time the block; append ``(rescaled s, wall s)`` to ``into``."""
        first = len(self.samples)
        self.sample()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.sample()
            into.append((rescale(start, end, self.samples[first:]), end - start))
