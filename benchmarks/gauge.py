"""The machine's speed, sampled between units of work, to scale their times.

On a shared machine the same work can take 1.5x longer for tens of
seconds at a time, because other tenants slow the core the benchmark
runs on; the fastest repeat of a run cannot escape a slow phase that
lasts the whole run.  The benchmark therefore runs a fixed calibration
kernel before and after each unit of program work, and scales the unit's
time by how long the kernel took at that moment.  A time reported by
the benchmark is the time the unit would take on a machine where one
calibration sample takes :data:`REFERENCE_S`.

The kernel uses neither seqtag nor any input of the run, so a change to
the program cannot move it.  It has two halves, because a slow phase
does not slow every kind of work alike: a recurrent half (dense
matrix-vector products, as in the BiLSTM and CRF) and a row-update half
(numpy calls on single 50-d rows picked by index, as in GloVe's and
SGD's sparse updates).  On a 2-vCPU host, GloVe fits scaled by the
recurrent half alone spread 1.3x as much as fits scaled by both.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.040  # one calibration sample on a quiet 2-vCPU host
STEPS = 1500  # recurrent half
ROW_UPDATES = 1000  # row-update half


class Gauge:
    """Calibration samples, and the factor that scales a unit's time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((400, 125))
        self._x = rng.standard_normal(125)
        self._rows = rng.uniform(-0.1, 0.1, (220, 50))
        self._pairs = rng.integers(0, 220, (ROW_UPDATES, 2)).tolist()
        self.samples: list[float] = []
        self.last = self.sample()

    def _kernel(self) -> float:
        x, acc = self._x.copy(), {}
        for i in range(STEPS):
            h = np.tanh(self._w @ x)
            x = 0.5 * (h[:125] + x)
            acc[i % 17] = acc.get(i % 17, 0.0) + float(h[0])
            _ = [j * 2 for j in range(20)]
        rows, sq = self._rows.copy(), np.ones_like(self._rows)
        for i, j in self._pairs:
            wi, wj = rows[i], rows[j]
            diff = wi @ wj - 0.5
            gi, gj = diff * wj, diff * wi
            rows[i] -= 0.001 * gi / np.sqrt(sq[i])
            rows[j] -= 0.001 * gj / np.sqrt(sq[j])
            sq[i] += gi * gi
            sq[j] += gj * gj
        return sum(acc.values()) + float(rows.sum())

    def sample(self) -> float:
        """Run the kernel once; its seconds become ``last``."""
        start = time.perf_counter()
        self._kernel()
        self.last = time.perf_counter() - start
        self.samples.append(self.last)
        return self.last

    def factor(self, before: float) -> float:
        """Scale for work done since the sample ``before``: a fresh sample is
        taken, and a unit's reference time is its time times this factor."""
        return 2 * REFERENCE_S / (before + self.sample())
