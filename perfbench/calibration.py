"""Host-speed calibration of the command times in run.py.

On a shared host one core's speed drifts by a third or more within a minute,
and neighbours slow some kinds of work more than others.  So while a command
runs, a fixed kernel is timed every SAMPLE_EVERY_S seconds from a SIGALRM
handler in the same thread, and the command time is rescaled by CAL_REF_S
over the kernel's mean time during that command.  The kernel's own time is
taken out of the command time.

Each sample runs the kernel twice and keeps the second time.  A single cold
run reads what the command left in the caches: it ran 20-30% slower inside
the chain_exact command than inside scan_toy.  The warm run reads the
host's speed, so a change to the program that moves its cache footprint does
not move the calibration with it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Reference time of one warm kernel, about its median on a 2-core x86-64 host
# under Python 3.11.
CAL_REF_S = 0.0017
SAMPLE_EVERY_S = 0.05

_M = np.array([[0.3, 0.1j, 0, 0.2], [-0.1j, 0.5, 0.1, 0],
               [0, 0.1, 0.7, 0.05j], [0.2, 0, -0.05j, 0.9]])
_P = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.2], [0.1, 0.2, 1.0]])


def kernel() -> float:
    """Time a fixed mix of interpreter work and tiny numpy and LAPACK calls.

    It mirrors what the workloads spend their time on: a small state vector,
    Kronecker products, a small linear solve and polynomial roots, with a
    dict and string formatting around them.  The program under test plays no
    part in it, so a faster program shows as a faster command.
    """
    start = time.perf_counter()
    psi = np.array([0.5, 0.5j, -0.5, 0.5])
    table: dict[str, float] = {}
    for i in range(12):
        phi = _M @ psi
        energy = np.vdot(psi, phi).real
        c, s = np.cos(0.1 * i), np.sin(0.1 * i)
        psi = np.kron(np.array([[c, -1j * s], [-1j * s, c]]), np.eye(2)) @ psi
        psi = psi / np.linalg.norm(psi)
        x = np.linalg.solve(_P + energy * np.eye(3), np.array([1.0, energy, energy * energy]))
        roots = np.roots(np.concatenate(([1.0], x)))
        table[f"k{i % 5}"] = float(np.min(roots.real)) + abs(np.vdot(psi, phi))
    return time.perf_counter() - start


def warm_kernel() -> float:
    kernel()
    return kernel()


class Sampler:
    """Time the warm kernel every SAMPLE_EVERY_S seconds while the block runs.

    ``samples`` holds the kernel times and ``spent_s`` the time the handler
    took, kernels included, to subtract from the block's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(warm_kernel())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.samples.append(warm_kernel())  # before the clock starts: a short block gets one too
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)
