"""Calibrated time: wall time corrected for the machine's speed of the moment.

On a shared machine the speed at which one thread runs drifts by a factor
of up to about 1.6 over tens of seconds as other tenants come and go, so
raw wall times of the same work differ between runs by more than any
useful regression bound.  The benchmark therefore runs two fixed
calibration kernels every ``TICK_S`` between operations:

  interp  interpreted Python with small NumPy calls, the shape of qcut's
          per-shot estimator code, ``verify`` and small-M teleports
  array   an einsum over 1.7 MB operands, the shape of the Bell-tensor
          projection that dominates teleports at M >= 16

The two drift differently (interp by about 1.6x, array by about 1.3x on
a shared 2-CPU Intel Xeon host), so each operation is
scaled by the kernel that matches it: ``wall * NOMINAL / k``, where ``k``
is the median time of that kernel within ``WINDOW_S`` of the operation.
A calibrated second is the time the machine takes for ``1 / NOMINAL``
kernel runs at a typical speed; raw wall times are kept in the results.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

NOMINAL = {"interp": 1.3e-3, "array": 5.0e-3}
TICK_S = 0.2
WINDOW_S = 1.0

_SMALL = np.arange(16.0)
_rng = np.random.default_rng(0)
_BELL_LIKE = _rng.random((18, 18, 18, 18)) + 0j
_JOINT_LIKE = _rng.random((18, 1, 18, 18)) + 0j


def _interp_kernel() -> float:
    total = 0.0
    for i in range(2000):
        if i % 20 == 0:
            total += float(np.sum(_SMALL * i))
        else:
            total += (i * 0.5) ** 0.5
        box = {"k": i}
        pair = [i, total]
        total += box["k"] * 1e-9 + pair[0] * 1e-9
    return total


def _array_kernel():
    return np.einsum("abji,jkiI->abIk", _BELL_LIKE, _JOINT_LIKE)


KERNELS = {"interp": _interp_kernel, "array": _array_kernel}


class Clock:
    """Kernel timings taken during a run, and the speed factors they give."""

    def __init__(self):
        self._at: list[float] = []
        self._took = {kind: [] for kind in KERNELS}

    def tick(self, force: bool = False):
        """Time both kernels, unless they ran less than TICK_S ago."""
        now = time.perf_counter()
        if not force and self._at and now - self._at[-1] < TICK_S:
            return
        self._at.append(now)
        for kind, kernel in KERNELS.items():
            start = time.perf_counter()
            kernel()
            self._took[kind].append(time.perf_counter() - start)

    def factor(self, kind: str, start: float, end: float) -> float:
        """NOMINAL over the median kernel time near [start, end]; kind
        "blend" is the geometric mean of the two factors."""
        if kind == "blend":
            return math.sqrt(self.factor("interp", start, end) * self.factor("array", start, end))
        lo = bisect.bisect_left(self._at, start - WINDOW_S)
        hi = bisect.bisect_right(self._at, end + WINDOW_S)
        took = self._took[kind]
        return NOMINAL[kind] / statistics.median(took[lo:hi] or took)

    def run_factor(self, kind: str) -> float:
        return NOMINAL[kind] / statistics.median(self._took[kind])
