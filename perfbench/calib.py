"""Calibration: convert raw seconds into seconds at a fixed machine speed.

On a shared two-core machine the speed one process gets drifts by tens
of percent, on time scales from 0.1 s to minutes: the same 4.5 s solve
took between 4.0 and 5.9 s in ten back-to-back repetitions.  The
benchmark therefore measures the machine's speed with a fixed kernel,
made of the same kind of work the program does (Python calls on small
numpy arrays), and scales each operation's time by
REF_KERNEL_S / (mean kernel time while the operation ran).

The kernel runs in a short burst before and after every operation and,
driven by an interval timer, once every SAMPLE_PERIOD_S inside it.  The
samples inside are what make it work: with the bursts alone the solve
above still spread by 15%, with the samples by 1.3%.  Time spent in the
samples is taken off the operation's time (the `clock` stops while a
sample runs), so the program is charged only for its own work.

The kernel never calls the package, so a change to the program cannot
change the yardstick; and it must run alone, so no change can make it
look slower by starting threads or processes beside it.
"""

from __future__ import annotations

import glob
import math
import os
import signal
import threading
import time

import numpy as np

# Median time of one kernel() call on the reference machine (2-core
# x86-64 sandbox, Python 3.11.7, numpy 2.4.6), from
# `python3 perfbench/steady.py --kernel`.
REF_KERNEL_S = 0.0035

BURST_CALLS = 8
SAMPLE_PERIOD_S = 0.05

_A = np.array([[0.0, 1.0, 0.0], [-1.0, -0.1, 0.5], [0.2, 0.0, -0.3]])
_B = np.array([0.0, 1.0, 0.5])


def kernel() -> float:
    """RK4 steps on a 3-vector plus a little pure-Python bookkeeping."""
    y = np.array([1.0, 0.0, 0.5])
    h = 0.01
    acc = 0.0
    table = {}
    for i in range(120):
        u = math.sin(0.1 * i)
        k1 = _A @ y + _B * u
        k2 = _A @ (y + 0.5 * h * k1) + _B * u
        k3 = _A @ (y + 0.5 * h * k2) + _B * u
        k4 = _A @ (y + h * k3) + _B * u
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc += float(np.abs(y).max())
        table[i % 7] = table.get(i % 7, 0.0) + acc
    return acc + sum(table.values())


def _live_children() -> list:
    """Pids of this process's children, read from /proc where available."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.extend(int(tok) for tok in fh.read().split())
        except OSError:
            continue
    return pids


def not_alone() -> str | None:
    """Why the kernel cannot run alone now, or None."""
    others = [t.name for t in threading.enumerate()
              if t is not threading.main_thread()]
    if others:
        return f"live Python threads {others}"
    children = _live_children()
    if children:
        return f"live child processes {children}"
    return None


class Calibrator:
    """Times operations in calibrated seconds.

    `clock()` is perf_counter with the time spent in the kernel taken
    out; use it for anything timed inside an operation.
    """

    def __init__(self):
        self.stolen = 0.0
        self.stolen_cpu = 0.0
        self._samples: list = []
        self._violation = None
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()  # the first call pays for lazy set-up inside numpy
        self._steal(t0, c0)

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _steal(self, t0: float, c0: float) -> None:
        self.stolen += time.perf_counter() - t0
        self.stolen_cpu += time.process_time() - c0

    def burst(self, calls: int = BURST_CALLS) -> float:
        """Mean seconds per kernel() call over one burst."""
        problem = not_alone()
        if problem:
            raise RuntimeError(f"calibration kernel not alone: {problem}")
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(calls):
            kernel()
        elapsed = time.perf_counter() - t0
        self._steal(t0, c0)
        return elapsed / calls

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        problem = not_alone()
        if problem:
            self._violation = problem
        else:
            t1 = time.perf_counter()
            kernel()
            self._samples.append(time.perf_counter() - t1)
        self._steal(t0, c0)

    def start(self) -> None:
        """Begin an operation: a burst, then samples every period."""
        self._samples = [self.burst()]
        self._violation = None
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> float:
        """End an operation; returns its factor from raw to calibrated."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self._violation:
            raise RuntimeError(
                f"calibration kernel not alone: {self._violation}")
        self._samples.append(self.burst())
        return REF_KERNEL_S / (sum(self._samples) / len(self._samples))
