"""Equivalence and policy tests for in-process parallel evaluation.

Every product runs in one process: serially, on an Executor's thread
pool (per-block code), or through the batched engine. These tests pin
that the three agree on a mid-sized H2 matrix, that vector and
malformed right-hand sides behave the same on every path, and how the
execution knobs resolve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Executor, ExecutionPolicy, inspector, relative_error
from repro.api.policy import DEFAULT_POLICY, resolve_policy


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(7).random((900, 2))


@pytest.fixture(scope="module")
def H(points):
    H = inspector(points, kernel="gaussian", structure="h2-geometric",
                  leaf_size=32)
    assert H.evaluator.decision.batch  # buckets exist; batched path active
    return H


@pytest.fixture(scope="module")
def W(H):
    return np.random.default_rng(8).random((H.dim, 24))


class TestEquivalence:
    def test_matches_serial_and_threaded(self, H, W):
        y_batched = H.matmul(W, order="batched")
        y_serial = H.matmul(W, order="original")
        with Executor(num_threads=2) as ex:
            y_thread = ex.matmul(H, W, order="original")
            y_thread_batched = ex.matmul(H, W, order="batched")
        assert relative_error(y_batched, y_serial) < 1e-12
        assert relative_error(y_thread, y_serial) < 1e-12
        # The thread count does not reach the batched engine's bytes.
        np.testing.assert_array_equal(y_thread_batched, y_batched)

    def test_vector_rhs(self, H, W):
        w = W[:, 0]
        with Executor(num_threads=2) as ex:
            y = ex.matmul(H, w, order="batched")
            y_thread = ex.matmul(H, w, order="original")
        assert y.shape == (H.dim,) and y_thread.shape == (H.dim,)
        # Compare at the same GEMM shape (q=1): BLAS picks different
        # kernels per shape, so bit-identity holds per identical call.
        np.testing.assert_array_equal(y, H.matmul(w, order="batched"))
        assert relative_error(y_thread, H.matmul(w, order="original")) \
            < 1e-12

    def test_wrong_row_count_rejected(self, H, W):
        with Executor(num_threads=2) as ex:
            for order in ("batched", "original"):
                with pytest.raises(ValueError, match="rows"):
                    ex.matmul(H, W[:-1], order=order)

    def test_batch_rejected_structure_matches_to_tolerance(self, points):
        # HSS declines batch lowering: order="batched" falls back to the
        # per-block code, so serial, threaded and batched all agree.
        H = inspector(points, kernel="gaussian", structure="hss",
                      leaf_size=32)
        assert not H.evaluator.decision.batch
        W = np.random.default_rng(9).random((H.dim, 6))
        ref = H.matmul(W, order="original")
        np.testing.assert_array_equal(H.matmul(W, order="batched"), ref)
        with Executor(num_threads=2) as ex:
            y = ex.matmul(H, W, order="batched")
        assert relative_error(y, ref) < 1e-12


class TestPolicy:
    def test_resolution_precedence(self):
        # Keywords beat the policy, the policy beats the carrier's
        # fallback, and the fallback beats the documented default.
        pol = ExecutionPolicy(num_threads=2, q_chunk=16)
        merged = resolve_policy(pol, num_threads=5)
        assert merged.num_threads == 5 and merged.q_chunk == 16
        fallback = ExecutionPolicy(order="original", num_threads=3)
        assert resolve_policy(pol, fallback=fallback) is pol
        assert resolve_policy(None, fallback=fallback) is fallback
        assert resolve_policy(None, q_chunk=8,
                              fallback=fallback).num_threads == 3
        assert resolve_policy(None) is DEFAULT_POLICY
