"""Session: inspect-once / execute-many as an object.

A :class:`Session` owns the two things the inspector-executor contract
needs to amortise work across requests:

* a thread-pool :class:`~repro.core.executor.Executor` (created from the
  session's :class:`~repro.api.policy.ExecutionPolicy`), so repeated
  evaluations reuse worker threads; and
* a :class:`~repro.api.store.PlanStore` — the artifact cache keyed by
  content fingerprints (the SHA-256 of the points buffer plus the
  :class:`~repro.api.plan.PlanConfig` fingerprint) holding both phase-1
  inspection artifacts and finished HMatrices. By default the store is
  memory-only (two LRU tiers, the historic behaviour); pass
  ``store=PlanStore(dir)`` (or just a directory path) and every artifact
  is also persisted with SHA-256 integrity manifests, so a **fresh
  process warm-starts from disk and serves its first request with zero
  inspection** (compile-once / serve-forever).

``session.operator(points, kernel=..., plan=...)`` therefore makes the
paper's Section 5 reuse paths automatic: a repeated request with identical
points and plan skips phase-1 inspection entirely (P1 reuse), and a
request that only changes the kernel or block accuracy re-runs phase 2
against the cached phase-1 artifacts (P2 reuse). :attr:`Session.stats`
counts builds and cache hits so the reuse is observable, not assumed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.operator import KernelOperator
from repro.api.plan import PlanConfig
from repro.api.policy import ExecutionPolicy, resolve_policy
from repro.api.store import PlanStore
from repro.core.executor import Executor
from repro.core.hmatrix import HMatrix
from repro.kernels.base import Kernel, get_kernel

# --------------------------------------------------------------------------
# Point-set fingerprinting (memoized).
#
# Hashing the full points buffer costs ~ O(N d) per call — measurable on
# the serving path where every request re-fingerprints the same arrays on
# a guaranteed cache hit. The memo is keyed on the array object's id plus
# a cheap witness (shape, dtype, CRC of <= 32 sampled rows). Id reuse
# after garbage collection is guarded by a weakref finalizer that drops
# the entry when the array dies. The witness detects mutation of the
# sampled rows (and any shape/dtype change) — NOT arbitrary single-element
# edits: like every identity-keyed cache, the memo assumes arrays used as
# cache keys are not mutated in place between calls. The lock makes the
# memo safe for concurrent Sessions (e.g. KernelService registration
# threads racing its dispatcher).
# --------------------------------------------------------------------------

_FP_CACHE: OrderedDict = OrderedDict()
_FP_CACHE_MAX = 256
_FP_LOCK = threading.Lock()


def _fp_cache_drop(key) -> None:
    with _FP_LOCK:
        _FP_CACHE.pop(key, None)


def _stripe_witness(points: np.ndarray) -> tuple:
    """Cheap content witness: CRC-32 of <= 32 evenly-sampled rows."""
    n = len(points)
    idx = np.linspace(0, n - 1, num=min(n, 32), dtype=np.intp)
    sample = np.ascontiguousarray(points[idx])
    return (points.shape, str(points.dtype), zlib.crc32(sample.tobytes()))


def points_fingerprint(points) -> str:
    """Content hash of a point set (dtype-normalized buffer + shape).

    Memoized per array object: a repeated call with the *same ndarray*
    skips the full-buffer SHA-256, which removes the dominant per-request
    overhead of a guaranteed cache hit on the serving path. The memo's
    stripe witness catches shape/dtype changes and mutation of the <= 32
    sampled rows; a point set handed to a Session is otherwise treated as
    immutable (mutate a copy instead to get a fresh fingerprint
    guaranteed).
    """
    memoizable = isinstance(points, np.ndarray) and len(points) > 0
    if memoizable:
        key = id(points)
        witness = _stripe_witness(points)
        with _FP_LOCK:
            hit = _FP_CACHE.get(key)
            if hit is not None and hit[0] == witness:
                _FP_CACHE.move_to_end(key)
                return hit[1]
    pts = np.ascontiguousarray(points, dtype=np.float64)
    h = hashlib.sha256()
    h.update(str(pts.shape).encode())
    h.update(pts.tobytes())
    fp = h.hexdigest()[:16]
    if memoizable:
        with _FP_LOCK:
            _FP_CACHE[key] = (witness, fp)
            _FP_CACHE.move_to_end(key)
            while len(_FP_CACHE) > _FP_CACHE_MAX:
                _FP_CACHE.popitem(last=False)
        # pragma-ish: ndarray is weakref-able, so this never fires today
        with contextlib.suppress(TypeError):
            weakref.finalize(points, _fp_cache_drop, key)
    return fp


@dataclass
class SessionStats:
    """Counters proving (or disproving) inspection reuse."""

    p1_builds: int = 0
    p1_hits: int = 0
    p2_builds: int = 0
    hmatrix_hits: int = 0
    evaluations: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Session:
    """Reusable inspect-once/execute-many context.

    Parameters
    ----------
    plan:
        Default :class:`PlanConfig` for operators created by this session
        (per-call ``plan=`` overrides it).
    policy:
        Default :class:`ExecutionPolicy`; its ``num_threads`` sizes the
        session's thread pool.
    num_threads:
        Shorthand override for ``policy.num_threads``.
    p1_cache_size / hmatrix_cache_size:
        Memory-tier LRU capacities, forwarded to the
        :class:`~repro.api.store.PlanStore` the session constructs when
        ``store`` is ``None`` or a path. Passing them alongside an
        existing ``PlanStore`` instance is a ``ValueError`` — size the
        store itself (``PlanStore(..., memory_p1=, memory_hmatrix=)``).
    store:
        A :class:`~repro.api.store.PlanStore`, or a directory path to
        open one, or ``None`` (default) for a memory-only store. With a
        disk-backed store every inspection artifact is persisted and a
        fresh ``Session(store=...)`` warm-starts from disk: its first
        ``matmul`` runs with ``p1_builds == p2_builds == 0``.
    manifest:
        Write a :class:`~repro.observability.RunManifest` at
        :meth:`close`, **best-effort** (a failed write never fails the
        run; it increments
        :func:`~repro.observability.manifest_write_failures`).
        ``True`` writes ``run-<run_id>.json`` under ``manifests/`` next
        to the store (requires a disk-backed store); a path writes
        there instead (a ``.json`` path names the exact file).

    Use as a context manager (or call :meth:`close`) to release the pool.
    """

    def __init__(self, plan: PlanConfig | None = None,
                 policy: ExecutionPolicy | None = None,
                 num_threads: int | None = None,
                 p1_cache_size: int | None = None,
                 hmatrix_cache_size: int | None = None,
                 store: PlanStore | str | Path | None = None,
                 manifest: bool | str | Path = False):
        self.plan = plan if plan is not None else PlanConfig()
        self.policy = resolve_policy(policy, num_threads=num_threads)
        # Resolve/validate the store BEFORE constructing the Executor: a
        # bad argument must not leak an already-started thread pool
        # (nothing would ever call close() on it).
        if store is None or isinstance(store, (str, os.PathLike)):
            store = PlanStore(
                store,
                memory_p1=8 if p1_cache_size is None else p1_cache_size,
                memory_hmatrix=(16 if hmatrix_cache_size is None
                                else hmatrix_cache_size),
            )
        elif isinstance(store, PlanStore):
            if p1_cache_size is not None or hmatrix_cache_size is not None:
                raise ValueError(
                    "p1_cache_size/hmatrix_cache_size apply to the "
                    "PlanStore the session constructs; with an existing "
                    "store, size it directly via PlanStore(memory_p1=, "
                    "memory_hmatrix=)"
                )
        else:
            raise TypeError(
                f"store must be a PlanStore, a directory path, or None; "
                f"got {type(store).__name__}"
            )
        self.store = store
        self._manifest_target: Path | None = None
        if manifest:
            if manifest is True:
                if self.store.directory is None:
                    raise ValueError(
                        "manifest=True writes next to the store and needs "
                        "a disk-backed one; pass manifest=<path> for a "
                        "memory-only session"
                    )
                self._manifest_target = self.store.directory / "manifests"
            else:
                self._manifest_target = Path(manifest)
        # The full policy travels into the executor (a threaded session
        # owns its pool, shut down on close()). The store travels too:
        # an order="auto" session persists its tuning profiles next to
        # its plan artifacts and warm-starts both.
        self._executor = Executor(policy=self.policy, store=self.store)
        self.stats = SessionStats()
        self._closed = False

    # ------------------------------------------------------------- inspection
    def _resolve_plan(self, plan, bacc) -> PlanConfig:
        plan = plan if plan is not None else self.plan
        if not isinstance(plan, PlanConfig):
            raise TypeError(
                f"plan must be a PlanConfig, got {type(plan).__name__}"
            )
        return plan.replace(bacc=bacc) if bacc is not None else plan

    def inspect(self, points, kernel: Kernel | str = "gaussian",
                plan: PlanConfig | None = None,
                bacc: float | None = None) -> HMatrix:
        """Cached inspection: points + kernel + plan -> HMatrix.

        Cache discipline (cheapest sufficient work wins):

        1. identical points/plan/kernel -> stored HMatrix (memory tier,
           else verified disk artifact), nothing runs;
        2. identical points + phase-1 knobs -> stored phase-1 artifacts,
           only phase 2 (compression, coarsening, layout, codegen) runs;
        3. otherwise -> full inspection; both store tiers are populated
           (and persisted, when the store is disk-backed).

        A disk artifact that fails its integrity check raises
        :class:`~repro.core.io.PlanStoreError` — the session fails closed
        rather than serving or rebuilding over tampered bytes.
        """
        plan = self._resolve_plan(plan, bacc)
        if isinstance(kernel, str):
            kernel = get_kernel(kernel)
        pfp = points_fingerprint(points)

        h_key = (pfp, plan.fingerprint(), kernel.identity())
        H = self.store.get("hmatrix", h_key)
        if H is not None:
            self.stats.hmatrix_hits += 1
            return H

        p1_key = (pfp, plan.p1_fingerprint())
        inspector = plan.to_inspector()
        p1 = self.store.get("p1", p1_key)
        if p1 is None:
            p1 = inspector.run_p1(points)
            self.store.put("p1", p1_key, p1)
            self.stats.p1_builds += 1
        else:
            self.stats.p1_hits += 1

        H = inspector.run_p2(p1, kernel)
        self.stats.p2_builds += 1
        self.store.put("hmatrix", h_key, H)
        return H

    def operator(self, points, kernel: Kernel | str = "gaussian",
                 plan: PlanConfig | None = None,
                 bacc: float | None = None,
                 policy: ExecutionPolicy | None = None) -> KernelOperator:
        """A lazy :class:`KernelOperator` bound to this session.

        Construction is free; the first product (or ``.materialize()``)
        routes through :meth:`inspect`, hitting the plan store when the
        same points+plan were seen before.
        """
        plan = self._resolve_plan(plan, bacc)
        return KernelOperator.from_points(
            points, kernel=kernel, plan=plan,
            policy=policy if policy is not None else self.policy,
            session=self,
        )

    # -------------------------------------------------------------- execution
    def matmul(self, H: HMatrix, W, policy: ExecutionPolicy | None = None,
               **overrides) -> np.ndarray:
        """``Y = H @ W`` through the session's pool and policy."""
        # `policy or self.policy` would silently swap an explicitly passed
        # policy object for the session default if it were ever falsy;
        # identity against None is the contract (the shared helper every
        # layer uses — see coalesce_policy).
        policy = resolve_policy(policy, fallback=self.policy, **overrides)
        self.stats.evaluations += 1
        return self._executor.matmul(H, W, policy=policy)

    # ------------------------------------------------------------ persistence
    def save(self, directory=None) -> int:
        """Persist every memory-tier artifact to the store's disk tier.

        With a disk-backed store this is a no-op safety net (artifacts are
        written through on build); for a memory-only session pass
        ``directory`` to snapshot the current caches into a new store
        location. Returns the number of artifacts written.
        """
        return self.store.flush(directory)

    def warm(self) -> int:
        """Verify + preload on-disk artifacts into the store's memory tiers.

        Returns the number of artifacts verified (0 for memory-only
        stores). Up to the memory-tier capacities, first requests are
        then served from memory rather than disk (see
        :meth:`PlanStore.warm` for the residency bound).
        """
        return self.store.warm()

    # -------------------------------------------------------------- lifecycle
    def cache_info(self) -> dict:
        """Occupancy + hit counters (session + store + tuner + compiled)."""
        return {**self.store.cache_info(), **self.stats.as_dict(),
                "autotune": self._executor.autotune_stats(),
                "compiled": self._executor.compiled_stats()}

    @property
    def autotuner(self):
        """The session executor's autotuner (created on first use).

        Resolves ``order="auto"`` policies; its profiles persist
        through the session's :class:`~repro.api.store.PlanStore`.
        """
        return self._executor.autotuner

    def close(self) -> None:
        """Release pools; write the run manifest first when configured.

        Idempotent — the manifest is written at most once. The write is
        best-effort by contract: an unwritable target never turns a
        successful run into a failed close.
        """
        if not self._closed:
            self._closed = True
            if self._manifest_target is not None:
                from repro.observability.manifest import (
                    build_run_manifest,
                    write_run_manifest,
                )
                write_run_manifest(build_run_manifest(session=self),
                                   self._manifest_target)
        self._executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc):
        self.close()
        return False
