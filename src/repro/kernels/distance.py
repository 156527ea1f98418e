"""Vectorised pairwise distance helpers.

The expansion ``||x - y||^2 = ||x||^2 - 2 x.y + ||y||^2`` turns the pairwise
distance computation into one GEMM plus two rank-1 broadcasts, which is the
standard locality-friendly formulation (one pass over each operand, all work
in BLAS3). Negative round-off is clamped so downstream ``sqrt`` stays real.
"""

from __future__ import annotations

import numpy as np


def pairwise_sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(len(X), len(Y))``."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"incompatible point arrays: {X.shape} vs {Y.shape} (need matching d)"
        )
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    # Built in place on the GEMM output: no full-size temporaries, and the
    # same bits as ``x2 - 2 XY + y2`` (scaling by -2 is exact).
    d2 = X @ Y.T
    d2 *= -2.0
    d2 += x2[:, None]
    d2 += y2[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distances, shape ``(len(X), len(Y))``."""
    return np.sqrt(pairwise_sq_distances(X, Y))
