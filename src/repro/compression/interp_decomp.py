"""Interpolative decomposition (ID) with adaptive rank selection.

Given a matrix G (samples x candidate columns), a column ID selects r
*skeleton* columns J and an interpolation matrix P (r x m) with
``G ~= G[:, J] @ P`` and ``P[:, J] = I``. It is computed from a pivoted QR:
``G Pi = Q [R11 R12]`` gives ``P = [I | R11^{-1} R12] Pi^T`` and the rank r
is the smallest prefix of the R diagonal meeting the requested *block
accuracy* — the adaptive srank tuning of the paper's low-rank module.

The factorizations here are small (tens to a few hundred rows), and a
threaded BLAS spends longer waking its workers than doing the work: with
scipy's bundled OpenBLAS at its default 2 threads on a 2-vCPU host, a
``solve_triangular`` of a 5x5 R against a 5x60 block took 7.9 ms per
call, and 0.07 ms at 1 thread. Importing this module therefore pins
scipy's OpenBLAS to one thread, once, for the whole process (see
:func:`_pin_scipy_blas` and DESIGN.md section 15); every ``scipy.linalg``
call in the process then runs single-threaded. numpy's BLAS, which runs
the executor's wide GEMMs, is a separate library and keeps its threads.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.cython_blas

from repro.utils.validation import require

#: Thread-count setters scipy's bundled OpenBLAS may export, newest name
#: first (the ``scipy_`` prefix is the symbol-prefixed wheel build).
_SETTERS = ("scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _pin_scipy_blas() -> bool:
    """Set scipy's bundled OpenBLAS to one thread; True if it took.

    Process-wide and done once at import: setting and restoring the count
    around each call would race between tenants compiling concurrently.
    Returns False (and changes nothing) when scipy links a BLAS without
    an OpenBLAS setter (MKL, BLIS, Accelerate) or the library cannot be
    opened.
    """
    try:
        lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    except OSError:
        return False
    for name in _SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return True
    return False


#: Whether the import-time pin took effect (False: scipy's BLAS is not an
#: OpenBLAS with a thread setter, and runs at its own default).
SCIPY_BLAS_PINNED = _pin_scipy_blas()


@dataclass(frozen=True)
class InterpolativeDecomposition:
    """Result of a column ID.

    Attributes
    ----------
    skeleton:
        Column indices J (into the input matrix) of the r skeleton columns.
    interp:
        Interpolation matrix P of shape (r, m) with ``G ~= G[:, J] @ P``.
    rank:
        r = len(skeleton) — the block's srank.
    achieved_error:
        The pivot-decay estimate actually achieved (|R[r,r]| / |R[0,0]|,
        0.0 when the factorisation is exact).
    """

    skeleton: np.ndarray
    interp: np.ndarray
    rank: int
    achieved_error: float

    def reconstruct(self, G: np.ndarray) -> np.ndarray:
        """``G[:, J] @ P`` — the rank-r approximation of G."""
        return G[:, self.skeleton] @ self.interp


def _choose_rank(rdiag: np.ndarray, bacc: float, max_rank: int) -> int:
    """Smallest r with |R[r,r]| <= bacc * |R[0,0]|, clamped to [1, max_rank]."""
    scale = rdiag[0]
    if scale == 0.0:
        return 1  # zero matrix: keep a single (zero) skeleton column
    below = np.flatnonzero(rdiag <= bacc * scale)
    r = int(below[0]) if len(below) else len(rdiag)
    return int(np.clip(r, 1, max_rank))


def interpolative_decomposition(
    G: np.ndarray,
    bacc: float = 1e-5,
    max_rank: int = 256,
    rank: int | None = None,
) -> InterpolativeDecomposition:
    """Column ID of ``G`` with rank adapted to the block accuracy ``bacc``.

    Parameters
    ----------
    G:
        (s, m) sample block; rows are far-field samples, columns are the
        candidate points being skeletonized.
    bacc:
        Block approximation accuracy; the rank is grown until the pivoted-QR
        diagonal decays below ``bacc`` relative to the first pivot.
    max_rank:
        Hard rank cap (the paper's maximum rank, default 256).
    rank:
        Fixed rank override (used by tests and ablations); bypasses bacc.
    """
    G = np.ascontiguousarray(G, dtype=np.float64)
    require(G.ndim == 2, "G must be 2-D")
    s, m = G.shape
    require(m >= 1, "G must have at least one column")

    if s == 0:
        # No far-field constraints: any single column is a valid skeleton.
        interp = np.zeros((1, m))
        interp[0, 0] = 1.0
        return InterpolativeDecomposition(
            skeleton=np.array([0], dtype=np.intp), interp=interp,
            rank=1, achieved_error=0.0,
        )

    # Pivoted QR: G[:, piv] = Q @ R with |diag(R)| non-increasing. Only R
    # and the pivots are used, so Q is never formed.
    R, piv = scipy.linalg.qr(G, mode="r", pivoting=True)
    rdiag = np.abs(np.diag(R))
    kmax = min(s, m)

    if rank is not None:
        require(rank >= 1, "rank must be >= 1")
        r = min(rank, kmax, max_rank)
    else:
        r = _choose_rank(rdiag[:kmax], bacc, min(max_rank, kmax))

    achieved = float(rdiag[r] / rdiag[0]) if (r < kmax and rdiag[0] > 0) else 0.0

    # P = [I | T] Pi^T with T = R11^{-1} R12 (triangular solve, not inverse).
    R11 = R[:r, :r]
    R12 = R[:r, r:m]
    if R12.size:
        # Guard against exactly-singular R11 (duplicate columns at the rank
        # boundary): fall back to least-squares.
        try:
            T = scipy.linalg.solve_triangular(R11, R12, lower=False)
        except scipy.linalg.LinAlgError:
            T = np.linalg.lstsq(R11, R12, rcond=None)[0]
        if not np.isfinite(T).all():
            T = np.linalg.lstsq(R11, R12, rcond=None)[0]
    else:
        T = np.zeros((r, 0))

    interp = np.empty((r, m))
    interp[:, piv[:r]] = np.eye(r)
    interp[:, piv[r:m]] = T
    skeleton = np.asarray(piv[:r], dtype=np.intp)
    return InterpolativeDecomposition(
        skeleton=skeleton, interp=interp, rank=r, achieved_error=achieved
    )
