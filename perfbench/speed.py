"""Host-speed sampling, so that end-to-end times do not move with the
load that other tenants put on a shared host.

On a shared host the speed of the cores the benchmark gets can change
by half or more within seconds.  Most work slows together, so a fixed
calibration kernel timed right next to the work tracks most of the
slowdown.  ``Sampler`` times the kernel on a ``SIGALRM`` timer every
``INTERVAL_S`` while the workload runs (the handler runs in the main
thread between bytecodes, so nothing runs concurrently), and
``normalise`` turns the wall time of an interval into the time it would
have taken at reference speed: the wall time, less the time the kernel
itself took inside the interval, scaled by ``REF_S`` over the mean
kernel time around the interval.  On the 2-core Xeon host the benchmark
was sized on, this cut the quartile spread of repeated identical
1.7-second sweeps from 32% to 6%.

``REF_S`` is a fixed reference time, near the kernel's fastest times
in the measuring process on that host, so normalised times are of the
order of the wall times seen there under light load.  Wall times are
reported alongside.
"""
from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.02
REF_S = 250e-6
PAD_S = 0.1  # samples this close to an interval also count for it
MIN_SAMPLES = 7

_rng = np.random.default_rng(0)
_A = (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))) / 4.0


def kernel() -> float:
    """A fixed slice of the kind of work a dfsqec gate step does: an
    interpreted loop plus small complex matrix products."""
    acc = {}
    for k in range(64):
        acc[k] = k * k
    b = _A
    for _ in range(6):
        b = _A @ b @ _A.conj().T
        b = b / np.abs(b).max()
        np.kron(b[:2, :2], b[2:4, 2:4])
    return float(b.real[0, 0]) + sum(acc.values())


class Sampler:
    """Times ``kernel`` every ``interval`` seconds while started, and
    whenever ``burst`` is called."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.start = array("d")
        self.dur = array("d")
        self._previous = None

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.start.append(t0)
        self.dur.append(t1 - t0)

    def begin(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def burst(self, n: int) -> None:
        """Take ``n`` samples back to back."""
        for _ in range(n):
            self._sample()

    def normalise(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Time of each ``(t0, t1)`` interval of ``time.perf_counter()``
        at reference speed."""
        # copies: a buffer view would make a sample taken meanwhile fail
        starts = np.array(self.start, dtype=np.float64)
        durs = np.array(self.dur, dtype=np.float64)
        if len(starts) < MIN_SAMPLES:
            raise ValueError(f"{len(starts)} speed samples, need {MIN_SAMPLES}")
        order = np.argsort(starts, kind="stable")
        starts, durs = starts[order], durs[order]
        ends = starts + durs
        # handler time inside [t0, t1), from prefix sums
        cum = np.concatenate(([0.0], np.cumsum(durs)))
        out = []
        for t0, t1 in intervals:
            i, j = np.searchsorted(starts, (t0, t1))
            net = (t1 - t0) - (cum[j] - cum[i])
            lo, hi = np.searchsorted(ends, t0 - PAD_S), np.searchsorted(starts, t1 + PAD_S)
            if hi - lo < MIN_SAMPLES:
                mid = (t0 + t1) / 2.0
                near = np.argsort(np.abs(starts - mid), kind="stable")[:MIN_SAMPLES]
                local = durs[near]
            else:
                local = durs[lo:hi]
            out.append(net * REF_S / float(np.mean(local)))
        return out
