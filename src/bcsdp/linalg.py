"""Dense symmetric linear algebra: PSD projection and shifted Cholesky.

Backed by LAPACK through numpy; the contracts here fix accuracy, not method.
Degenerate 0x0 and 1x1 matrices are legal inputs everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "project_psd_dense",
    "cholesky_psd",
]


def project_psd_dense(a: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clamp strictly negative eigenvalues to 0."""
    if a.shape[0] == 0:
        return a.copy()
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    w = np.maximum(w, 0.0)
    return (v * w) @ v.T


def cholesky_psd(a, shift: float | None = None) -> np.ndarray:
    """Lower-triangular L with L L^T = A + shift*I, A symmetrised first.

    The default shift is 1e-9 * trace/n (floored at 1e-12), escalated by
    factors of 10 up to six times on factorization breakdown; beyond that a
    LinAlgError propagates.
    """
    dense = np.asarray(a, dtype=float)
    dense = 0.5 * (dense + dense.T)
    n = dense.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if shift is None:
        shift = max(1e-9 * np.trace(dense) / n, 1e-12)
    last_err: Exception | None = None
    for _ in range(7):
        try:
            return np.linalg.cholesky(dense + shift * np.eye(n))
        except np.linalg.LinAlgError as err:
            last_err = err
            shift *= 10.0
    raise np.linalg.LinAlgError(
        f"factorization breakdown beyond shift budget (last shift {shift:g})"
    ) from last_err
