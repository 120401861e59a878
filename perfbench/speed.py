"""Speed reference: fixed kernels timed beside the workload, to correct the
benchmark's timings for the speed of a shared host.

On a virtual machine that shares its cores, the same unit of work can run
1.5 times slower for seconds or minutes at a time, and the host's speed
drifts over an hour.  A reference kernel, timed just before and just after
each lap of a unit, is slowed by the same amount.  A lap's time is then
reported in *reference seconds*: its wall time scaled by the kernel's
nominal time over its measured time, that is, the seconds the lap would
have taken on a host where the kernel takes ``nominal_s`` (0.08 s for each
kernel, about its time on a quiet 2-vCPU Intel Xeon at 2.0 GHz).

The kernels do not call ``imexlmm``, so a change to the program moves the
lap times and not the reference.  Each kernel copies the instruction mix of
the workloads it serves:

- ``spectral``: multistep-like updates of a 128 x 128 field: complex 2-D
  FFTs, a cubic nonlinearity and sums over six history arrays (the PDE
  workloads).
- ``spectral_stages``: fewer such updates, then fixed-point sweeps over
  three stacked stages with per-mode 3 x 3 solves, as in a collocation
  starter (``convergence_tables``, where the starter is half the work).
- ``exact``: exact rational linear solves with ``Fraction``, many single
  small eigensolves and one batched eigensolve of small companion matrices
  (the analysis calls of ``scheme_design``).
- ``batched_eig``: one batched eigensolve of complex 6 x 6 companion
  matrices, several megabytes of them (the stability slice of
  ``scheme_design``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class Kernel:
    """A fixed piece of work and the time it takes on the nominal host."""

    name = ""
    nominal_s = 0.0

    def __call__(self):
        raise NotImplementedError

    def time(self) -> float:
        t0 = time.perf_counter()
        self()
        return time.perf_counter() - t0

    def median_time(self, repeats: int) -> float:
        return statistics.median(self.time() for _ in range(repeats))


class Spectral(Kernel):
    name = "spectral"
    nominal_s = 0.08
    UPDATES = 32

    def __init__(self):
        n = 128
        x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        field = 0.3 * np.sin(x)[:, None] * np.cos(2.0 * x)[None, :]
        k2 = (np.fft.fftfreq(n, 1.0 / n) ** 2)[:, None] + (np.fft.fftfreq(n, 1.0 / n) ** 2)[None, :]
        self.symbol = -k2 * (1.0 - k2 / 64.0)
        self.pivot = 1.0 - 0.01 * self.symbol
        self.history = [np.fft.fft2(field * (1.0 - 0.01 * j)) for j in range(6)]
        self.weights = [1.0 / (j + 2.0) for j in range(6)]

    def __call__(self):
        w_hat = self.history[0]
        for _ in range(self.UPDATES):
            rhs = np.zeros_like(w_hat)
            for a, h in zip(self.weights, self.history):
                rhs -= a * h
                rhs += 0.01 * self.symbol * (a * h)
            w = np.fft.ifft2(rhs / self.pivot).real
            w_hat = np.fft.fft2(w)
            np.fft.fft2(w ** 3 - w)
        return w_hat


class SpectralStages(Spectral):
    name = "spectral_stages"
    UPDATES = 12
    SWEEPS = 4

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(2024)
        self.collocation = rng.uniform(0.0, 0.3, (3, 3))
        mats = np.eye(3)[None] - 0.01 * self.symbol.ravel()[:, None, None] * self.collocation[None]
        self.inverses = np.linalg.inv(mats)
        self.start = np.fft.ifft2(self.history[0]).real

    def __call__(self):
        super().__call__()
        w_hat = np.fft.fft2(self.start)
        stages = np.stack([self.start] * 3)
        for _ in range(self.SWEEPS):
            f_hats = np.stack([self.symbol * np.fft.fft2(s ** 3 - s) for s in stages])
            rhs = w_hat[None] + 0.01 * np.einsum("ij,j...->i...", self.collocation, f_hats)
            stage_hats = np.einsum("pij,jp->ip", self.inverses, rhs.reshape(3, -1))
            stages = np.fft.ifftn(stage_hats.reshape(stages.shape), axes=(1, 2)).real
        return stages


class Exact(Kernel):
    name = "exact"
    nominal_s = 0.08
    SOLVES = 36        # exact 7 x 7 rational solves
    SMALL = 600        # single 6 x 6 eigensolves, one call each
    BATCH = 5000       # 6 x 6 companion matrices in one batched eigensolve

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.matrices = np.zeros((self.BATCH, 6, 6))
        self.matrices[:, 0, :] = rng.uniform(-1.0, 1.0, (self.BATCH, 6))
        self.matrices[:, np.arange(1, 6), np.arange(5)] = 1.0
        self.systems = [
            [[Fraction(i + 1) ** j + Fraction(s, i + j + 2) for j in range(7)] + [Fraction(i - s)]
             for i in range(7)]
            for s in range(self.SOLVES)
        ]

    @staticmethod
    def _solve(rows):
        """Gauss-Jordan elimination on an augmented rational matrix."""
        rows = [list(r) for r in rows]
        n = len(rows)
        for c in range(n):
            p = next(r for r in range(c, n) if rows[r][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c][c]
            rows[c] = [x / pivot for x in rows[c]]
            for r in range(n):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return [r[-1] for r in rows]

    def __call__(self):
        solutions = [self._solve(system) for system in self.systems]
        small = [np.linalg.eigvals(m) for m in self.matrices[: self.SMALL]]
        return solutions, small, np.linalg.eigvals(self.matrices)


class BatchedEig(Kernel):
    name = "batched_eig"
    nominal_s = 0.08
    BATCH = 3200

    def __init__(self):
        rng = np.random.default_rng(54321)
        self.matrices = np.zeros((self.BATCH, 6, 6), dtype=complex)
        self.matrices[:, 0, :] = rng.uniform(-1.0, 1.0, (self.BATCH, 6)) + 1j * rng.uniform(
            -1.0, 1.0, (self.BATCH, 6)
        )
        self.matrices[:, np.arange(1, 6), np.arange(5)] = 1.0

    def __call__(self):
        return np.linalg.eigvals(self.matrices)


KERNELS = {k.name: k for k in (Spectral, SpectralStages, Exact, BatchedEig)}


@dataclass(frozen=True)
class Lap:
    seconds: float      # wall time of the lap
    kernel: str         # the kernel timed around it
    ref_before: float   # kernel time just before the lap
    ref_after: float    # kernel time just after it

    def reference_seconds(self) -> float:
        nominal = KERNELS[self.kernel].nominal_s
        return self.seconds * nominal / (0.5 * (self.ref_before + self.ref_after))


class LapClock:
    """Times a unit of work in laps, with a kernel timed just before and
    just after every lap.  ``lap(kernel)`` ends one lap and starts the next,
    to be measured against ``kernel`` (by default, the same kernel as the
    lap before); the kernel runs in between are part of neither lap."""

    def __init__(self, default: str):
        self.default = default
        self.kernels = {}
        self.laps: list[Lap] = []

    def start(self):
        self.laps = []
        self._begin(self.default, None)

    def lap(self, kernel: str | None = None):
        seconds = time.perf_counter() - self._t0
        after = self.kernels[self._kernel].time()
        self.laps.append(Lap(seconds, self._kernel, self._ref, after))
        self._begin(kernel or self._kernel, after)

    def _begin(self, kernel, ref):
        if kernel not in self.kernels:
            self.kernels[kernel] = KERNELS[kernel]()
            self.kernels[kernel]()  # warm-up
        if ref is None or kernel != self._kernel:
            ref = self.kernels[kernel].time()
        self._kernel, self._ref = kernel, ref
        self._t0 = time.perf_counter()

    @staticmethod
    def wall(laps) -> float:
        return sum(lap.seconds for lap in laps)

    @staticmethod
    def reference(laps) -> float:
        return sum(lap.reference_seconds() for lap in laps)
