"""Machine-speed probe: a fixed mix of interpreter and numpy work.

The probe belongs to the benchmark and never calls the package, so a change
to the package cannot change its time.  Timed between a workload's calls, it
tracks how fast the machine runs at that moment; `run.py` divides the pass
time by the median probe time of the run and multiplies by REFERENCE_S, the
probe's median time on the reference machine (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference machine (2 vCPUs of an Intel Xeon,
# numpy 2.4 with OpenBLAS 0.3.31 on one thread).
REFERENCE_S = 0.069

_MATRIX = np.random.default_rng(0).standard_normal((160, 160))
_MATRIX = _MATRIX + _MATRIX.T


def probe_s() -> float:
    """Seconds taken by one run of the fixed work."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 251] = counts.get(i % 251, 0) + (i * 7919) % 10007
    sorted(range(30000), key=lambda x: (x * 7919) % 10007)
    b = _MATRIX
    for _ in range(12):
        np.linalg.eigh(_MATRIX)
        b = (b[:, :32] @ _MATRIX[:32]) / 160.0
        np.maximum(b, 0.0, out=b)
    return time.perf_counter() - t0
