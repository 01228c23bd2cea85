"""Core-speed probe: a fixed reference kernel sampled while a batch runs.

On a shared host a core's speed drifts by 10-30% within seconds while the
thread on it keeps running (no steal time shows for it: a neighbour on the
same physical core), and the two cores of a 2-core machine drift
independently.  Wall times drift with it, so runs of the same code on the
same batches spread by a quarter in throughput.

The probe measures that speed where the work runs.  While a batch runs, a
``SIGALRM`` handler runs a fixed kernel of about 1.5 ms (small float32
matmuls, a softmax and a short Python loop, the mix of the decode and the
SPICE kernels) every ``PERIOD_S`` on the main thread, which runs the batch,
and records how long it took.  Each stretch of work between two samples is
scaled by ``REFERENCE_S`` over the kernel's time there (the median of that
sample and its neighbours, so one interrupted sample does not count), and
the scaled stretches add up to the batch's *reference seconds*: its time on
a core that runs the kernel in ``REFERENCE_S``.  The probe's own time is
left out of them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between two samples.
PERIOD_S = 0.05
#: A typical time of the kernel sampled inside a batch on the 2-core VM the
#: benchmark was defined on (Xeon, NumPy 2.4.6).  It only sets the scale of
#: the reference seconds.
REFERENCE_S = 1.5e-3

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((64, 64)).astype(np.float32)
_H = _RNG.standard_normal((32, 64)).astype(np.float32)


def kernel() -> None:
    """The fixed reference work."""
    h = _H
    for _ in range(40):
        z = h @ _W
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        e /= e.sum(axis=1, keepdims=True)
        h = np.tanh(e @ _W.T + h)
        sum(k * 0.5 for k in range(20))


class SpeedProbe:
    """Samples the core's speed while its ``with`` block runs on the main
    thread; an inactive probe only times the block."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> SpeedProbe:
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.end = time.monotonic()

    def _sample(self, signum, frame) -> None:
        begin = time.monotonic()
        kernel()
        self.samples.append((begin, time.monotonic()))

    def probe_seconds(self) -> float:
        """Wall time spent in the probe's kernel."""
        return sum(end - begin for begin, end in self.samples)

    def reference_seconds(self) -> float:
        """The block's work, without the probe, at the reference speed."""
        if not self.samples:
            return self.end - self.start
        taken = [end - begin for begin, end in self.samples]
        total, since = 0.0, self.start
        for k, (begin, end) in enumerate(self.samples):
            total += (begin - since) * REFERENCE_S / statistics.median(taken[max(k - 1, 0):k + 2])
            since = end
        return total + (self.end - since) * REFERENCE_S / statistics.median(taken[-3:])
