"""Machine-speed sampling, so that timings survive a machine whose speed swings.

On a shared 2-core KVM guest the same operation takes from 0.7x to 1.3x its
typical time from one minute to the next, with CPU time equal to wall time:
the core itself runs slower, not the process waiting.  SpeedSampler measures
that speed while the operation runs, in the same thread: every INTERVAL_S a
SIGALRM handler runs kernel(), a fixed slice of work shaped like the
simulator's hot loop (4x4 complex RK4 stages and a Hermitian eigenvalue
check), and records how long it took.  A time measured under the sampler is
reported as

    (wall time - time spent in the sampler) * KERNEL_REF_S / mean kernel time,

i.e. in seconds at the speed where kernel() takes KERNEL_REF_S.  kernel() is
frozen here and imports nothing from excitonsim, so a change to the program
cannot change it.  Python runs signal handlers between bytecodes only, so a
single long native call delays a sample but does not lose the measurement.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
KERNEL_REF_S = 5e-4  # typical kernel() time on the machine of baseline.json
MIN_SAMPLES = 5

_H0 = np.array([0.0, 10.0, 20.0, 34.5])
_RAISE = [np.kron(np.eye(2), [[0.0, 0.0], [1.0, 0.0]]), np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(2))]


def _rhs(t: float, rho: np.ndarray) -> np.ndarray:
    h = np.diag(_H0).astype(complex)
    amp = 0.5 * math.exp(-(((t - 0.75) / 0.25) ** 2)) * np.exp(-3j * t)
    for sp in _RAISE:
        h -= amp * sp + np.conj(amp) * sp.T.conj()
    return (-1j / 0.6582119514) * (h @ rho - rho @ h)


def kernel(steps: int = 4) -> None:
    """A fixed slice of work: a few RK4 steps of a driven 4x4 density matrix."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    dt = 1e-3
    t = 0.0
    for _ in range(steps):
        k1 = _rhs(t, rho)
        k2 = _rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = _rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = _rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.T.conj())
        np.linalg.eigvalsh(rho).min()
        t += dt


class SpeedSampler:
    """Samples kernel() every INTERVAL_S while the context is open.

    Main thread only, since signal handlers run there.  After the context
    closes, own_s is the time the samples took inside it.  Call kernel()
    once per process before the first sampler: its first call is about
    twice as slow as the rest.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.own_s = 0.0
        self._previous = None

    def _sample(self, *_):
        # With the collector paused, a collection that the program's own
        # allocations have made due runs in the program, not in the sample.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.own_s = sum(self.samples)

    def scale(self) -> float:
        """KERNEL_REF_S over the mean kernel time; tops up short regions."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return KERNEL_REF_S / statistics.fmean(self.samples)

    def reference_s(self, wall_s: float) -> float:
        """A wall time measured around the context, in reference seconds."""
        return (wall_s - self.own_s) * self.scale()
