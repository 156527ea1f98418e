"""The MatRox executor: runs the generated code against the CDS storage.

``matmul(H, W)`` is the paper's Figure 2 executor call. :class:`Executor`
additionally owns a thread pool so repeated evaluations (the common case the
inspector amortises against) reuse worker threads. NumPy's BLAS releases the
GIL inside GEMM, so sub-tree and block tasks overlap on real cores.

All execution knobs travel as one :class:`~repro.api.policy.ExecutionPolicy`
(order, num_threads, q_chunk). There is a single documented default,
:data:`~repro.api.policy.DEFAULT_POLICY` (``order="batched"``): the bucketed
batched-GEMM engine (one stacked GEMM per CDS shape bucket; see DESIGN.md
section 3), which runs panels of at most
:data:`~repro.api.policy.NARROW_Q_MAX` columns on the fused frozen-table
driver and wider ones on the row-panel evaluator, and falls back to the
thread-pool per-block code when the cost model rejected batch lowering.
:func:`matmul_many` streams wide or many-panel right-hand sides through
cache-sized column chunks.

``order="auto"`` resolves through the profile-guided autotuner
(:mod:`repro.tuning`, DESIGN.md section 9) before any evaluator runs: an
Executor carries its own :class:`~repro.tuning.Autotuner` (persisted
through the ``store`` it was given, so profiles warm-start across
processes), while the free functions share the process-global tuner.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.api.policy import (
    DEFAULT_Q_CHUNK,
    ExecutionPolicy,
    resolve_policy,
    runs_fused,
)
from repro.core.hmatrix import HMatrix

if TYPE_CHECKING:  # annotation-only: the real imports stay lazy
    from repro.api.store import PlanStore
    from repro.codegen.compiled import CompiledCache
    from repro.tuning.autotune import Autotuner

__all__ = ["Executor", "matmul", "matmul_many", "DEFAULT_Q_CHUNK"]


class Executor:
    """Reusable evaluation context with an optional thread pool.

    ``Executor(num_threads=4)`` keeps the legacy shorthand;
    ``Executor(policy=ExecutionPolicy(...))`` carries every knob at once.
    An explicit ``num_threads`` overrides the policy's.

    ``store`` (a :class:`~repro.api.store.PlanStore`) backs the
    executor's autotuner: ``order="auto"`` profiles persist there and
    warm-start later processes. Without one, auto resolution falls back
    to the process-global tuner (memory-only).
    """

    def __init__(self, num_threads: int | None = None,
                 policy: ExecutionPolicy | None = None,
                 store: PlanStore | None = None,
                 autotuner: Autotuner | None = None):
        """``num_threads=None`` or 1 runs serially (no pool)."""
        self.policy = resolve_policy(policy, num_threads=num_threads)
        self.num_threads = self.policy.num_threads
        self._pool = (
            ThreadPoolExecutor(max_workers=self.num_threads)
            if self.num_threads and self.num_threads > 1
            else None
        )
        self._store = store
        self._autotuner = autotuner
        self._compiled_cache = None

    # -------------------------------------------------------------- tuning
    @property
    def autotuner(self) -> Autotuner:
        """This executor's :class:`~repro.tuning.Autotuner` (lazy).

        Backed by the executor's ``store`` when one was given (profiles
        persist and warm-start); otherwise the process-global tuner, so
        repeated auto resolutions amortize across short-lived executors.
        """
        if self._autotuner is None:
            from repro.tuning import Autotuner, default_autotuner
            self._autotuner = (Autotuner(store=self._store)
                               if self._store is not None
                               else default_autotuner())
        return self._autotuner

    def autotune_stats(self) -> dict:
        """Tuner counters (empty dict until auto resolution first runs)."""
        return (self._autotuner.stats_dict()
                if self._autotuner is not None else {})

    # ------------------------------------------------------------- compiled
    @property
    def compiled_cache(self) -> CompiledCache:
        """This executor's :class:`~repro.codegen.compiled.CompiledCache`.

        Backed by the executor's ``store`` when one was given (compiled
        artifacts persist in the ``"compiled"`` tier and warm-start
        later processes with zero recompiles); otherwise the
        process-global cache (memory-only).
        """
        if self._compiled_cache is None:
            from repro.codegen.compiled import (
                CompiledCache,
                default_compiled_cache,
            )
            self._compiled_cache = (CompiledCache(store=self._store)
                                    if self._store is not None
                                    else default_compiled_cache())
        return self._compiled_cache

    def compiled_stats(self) -> dict:
        """Compiled-tier counters (empty until a product resolves one)."""
        return (self._compiled_cache.stats_dict()
                if self._compiled_cache is not None else {})

    def _resolve_auto(self, H: HMatrix, W,
                      pol: ExecutionPolicy) -> ExecutionPolicy:
        if not pol.is_auto:
            return pol
        q = W.shape[1] if getattr(W, "ndim", 1) == 2 else 1
        return self.autotuner.resolve(H, q, pol)

    def matmul(self, H: HMatrix, W: np.ndarray, order: str | None = None,
               q_chunk: int | None = None,
               policy: ExecutionPolicy | None = None) -> np.ndarray:
        """``Y = H @ W`` under ``policy`` (explicit knobs override it)."""
        pol = resolve_policy(policy, order=order, q_chunk=q_chunk,
                             fallback=self.policy)
        pol = self._resolve_auto(H, W, pol)
        # A panel that runs fused resolves its driver through this
        # executor's cache (store-backed when available), so the
        # evaluator attached to H is the persisted one. Wider panels
        # never create the cache (nor import the compiled tier).
        q = W.shape[1] if getattr(W, "ndim", 1) == 2 else 1
        cache = self.compiled_cache if runs_fused(q, pol.q_chunk) else None
        if self._pool is None and pol.num_threads and pol.num_threads > 1:
            # Per-call thread request on a pool-less executor: honor it
            # with a short-lived pool rather than silently running serial.
            return H.matmul(W, policy=pol, compiled_cache=cache)
        return H.matmul(W, pool=self._pool, order=pol.order,
                        q_chunk=pol.q_chunk, compiled_cache=cache)

    def matmul_many(self, H: HMatrix, W, order: str | None = None,
                    q_chunk: int | None = None,
                    policy: ExecutionPolicy | None = None):
        """Evaluate ``H @ W`` for a wide or many-panel right-hand side.

        A single ``(N, Q)`` array is streamed through column chunks of at
        most ``q_chunk`` (the generated evaluator's cache-sized default
        when unset) so each pass's panels stay cache-resident, and the
        result is returned as one ``(N, Q)`` array. Any other iterable is
        treated as a stream of independent right-hand-side panels and a
        list of results is returned. Chunking happens once, inside the
        selected evaluator — ``q_chunk`` is honored exactly. An auto
        policy resolves per panel, so a stream whose panel widths drift
        across bucket boundaries re-tunes exactly when the optimum can
        move.
        """
        pol = resolve_policy(policy, order=order, q_chunk=q_chunk,
                             fallback=self.policy)
        if isinstance(W, np.ndarray):
            return self.matmul(H, W, policy=pol)
        return [self.matmul_many(H, w, policy=pol) for w in W]

    def close(self) -> None:
        """Shut the thread pool down. Idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def matmul(H: HMatrix, W: np.ndarray, num_threads: int | None = None,
           order: str | None = None, q_chunk: int | None = None,
           policy: ExecutionPolicy | None = None) -> np.ndarray:
    """``Y = H @ W`` — the executor entry point of the paper's Figure 2.

    Thin shim over the policy layer: knobs resolve against
    :data:`~repro.api.policy.DEFAULT_POLICY`; ``order="auto"`` resolves
    through the process-global autotuner, so repeated calls reuse the
    profile tuned on the first one.

    .. versionchanged:: 1.1
       The default ``order`` is now the shared policy default
       (``"batched"``); it was previously ``"original"`` here while
       :func:`matmul_many` already defaulted to ``"batched"``. The batched
       engine falls back to the per-block code when the cost model rejected
       batch lowering, so results only move at rounding level.
    """
    pol = resolve_policy(policy, order=order, num_threads=num_threads,
                         q_chunk=q_chunk)
    if pol.is_auto:
        from repro.tuning import resolve_auto
        pol = resolve_auto(H, W, pol)
    if pol.num_threads and pol.num_threads > 1:
        with Executor(policy=pol) as ex:
            return ex.matmul(H, W)
    return H.matmul(W, order=pol.order, q_chunk=pol.q_chunk)


def matmul_many(H: HMatrix, W, num_threads: int | None = None,
                order: str | None = None, q_chunk: int | None = None,
                policy: ExecutionPolicy | None = None):
    """Multi-RHS streaming evaluation (see :meth:`Executor.matmul_many`).

    Thin shim over the policy layer; shares the single
    :data:`~repro.api.policy.DEFAULT_POLICY` default (``order="batched"``)
    with :func:`matmul` — the two entry points no longer disagree.
    """
    pol = resolve_policy(policy, order=order, num_threads=num_threads,
                         q_chunk=q_chunk)
    if pol.is_auto:
        from repro.tuning import default_autotuner
        with Executor(policy=pol, autotuner=default_autotuner()) as ex:
            return ex.matmul_many(H, W)
    with Executor(policy=pol) as ex:
        return ex.matmul_many(H, W)
