"""Machine-speed calibration: a fixed piece of work timed next to the ops.

On a shared host the CPU runs the same work at speeds up to 1.7x apart,
changing within seconds and in phases of minutes, and no setting inside the
process removes that.  The worker therefore times this fixed work (a Python
loop, small numpy kernels and a sparse LU solve, the kinds of work
p_potential does) before the first op and after every op.  run.py
multiplies times by ``REFERENCE_S`` over a median sample, which turns them
into seconds at one fixed machine speed: an op's time by the median of the
samples taken just before and just after it, since the speed changes
within seconds; set-up and per-layer times, which have no samples of their
own around them, by the median of all the repetition's samples.  The work
lives in the benchmark, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu  # bound before spans.py wraps it

# About the median time of one sample on the 2-core Intel Xeon machine the
# baseline was measured on.  Fixed: changing it rescales every time metric.
REFERENCE_S = 0.020

_SIDE = 60


class Calibration:
    """Builds its inputs once; ``point`` times passes of the fixed work."""

    def __init__(self):
        n = _SIDE * _SIDE
        off = -np.ones(n - 1)
        self.matrix = sparse.diags([off, 5.0 * np.ones(n), off],
                                   [-1, 0, 1], format="csc")
        self.rhs = np.ones(n)
        self.dense = np.random.default_rng(0).random((120, 120))
        self.points = []          # one list of sample seconds per point

    def point(self, count: int) -> None:
        """Time ``count`` passes of the fixed work, as one point."""
        self.points.append([self._sample() for _ in range(count)])

    def _sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        table = {i: i for i in range(30_000)}
        for _ in range(10):
            self.dense @ self.dense
        for _ in range(6):
            splu(self.matrix).solve(self.rhs)
        del total, table
        return time.perf_counter() - start
