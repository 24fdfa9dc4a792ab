"""Fixed reference work that measures the machine's speed during a run.

On a shared host the same op's time drifts by up to 1.8x over minutes as
other tenants load the hardware, and the fastest or median repeat within a
run cannot remove a slow spell that lasts the whole run.  The measured
process therefore runs this block after each round, for a tenth of the
round's time, and reports its times at the speed of a machine on which one
block takes ``BLOCK_S``: raw time * BLOCK_S / (mean block time over the
run).

The block does the three kinds of work the workloads spend their time on:
an all-pairs numpy distance maximum (as in the diameter layer), an
interpreter loop over numpy rows (as in the hull) and many small numpy
calls (as in resampling).  Its temporaries stay under a megabyte, far
below any workload's, so that it leaves the measured process's peak RSS
the program's own.  It is benchmark code: a change to the program does not
change it.
"""

import time

import numpy as np

# The speed calibrated times are given at: one block in BLOCK_S seconds.
# On the shared 2-core x86-64 VM of the baseline (Python 3.11.7, numpy
# 2.4.6) a run's mean block took 0.045 s in quiet spells and 0.055-0.075 s
# in the baseline runs.
BLOCK_S = 0.045

_rng = np.random.default_rng(20140519)
_angles = np.sort(_rng.uniform(0.0, 2.0 * np.pi, 3000))
POINTS = np.column_stack([np.cos(_angles), np.sin(_angles)])
POINTS += _rng.normal(scale=1e-3, size=POINTS.shape)
POINTS = POINTS[np.lexsort((POINTS[:, 1], POINTS[:, 0]))]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_chain(points):
    chain = []
    for p in points:
        while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    return len(chain)


def _small_arrays(points):
    total = 0.0
    for i in range(len(points) - 1):
        t = np.arange(4) / 4.0
        total += float((points[i] + t[:, None] * (points[i + 1]
                                                 - points[i])).sum())
    return total


def _max_sq_distance(points, rows=4):
    x, y = points[:, 0], points[:, 1]
    best = 0.0
    for i in range(0, len(points), rows):
        dx = x[i:i + rows, None] - x[None, :]
        dy = y[i:i + rows, None] - y[None, :]
        best = max(best, float(np.max(dx * dx + dy * dy)))
    return best


def block():
    """Runs one block of reference work; returns its wall time."""
    t = time.perf_counter()
    _max_sq_distance(POINTS[::2])
    _hull_chain(POINTS)
    _hull_chain(POINTS[::-1])
    _small_arrays(POINTS)
    return time.perf_counter() - t
