"""The HMatrix: compressed kernel matrix + structure sets + CDS + code.

This is the object the MatRox inspector hands to the executor (the ``H`` of
the paper's Figure 2). It owns the CDS-packed generators, the structure sets
that produced the layout, and the compiled specialized evaluator, and maps
between the user's point order and the internal tree order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.structure_sets import BlockSet, CoarsenSet
from repro.api.policy import ExecutionPolicy, resolve_policy, runs_fused
from repro.codegen.emit import GeneratedEvaluator
from repro.compression.factors import Factors
from repro.storage.cds import CDSMatrix

if TYPE_CHECKING:  # annotation-only: the compiled tier imports core lazily
    from repro.codegen.compiled import CompiledCache


@dataclass
class HMatrix:
    """Compressed H2 approximation of a kernel matrix."""

    cds: CDSMatrix
    evaluator: GeneratedEvaluator
    metadata: dict = field(default_factory=dict)
    _batched: GeneratedEvaluator | None = field(default=None, repr=False)
    _batched_built: bool = field(default=False, repr=False)
    _compiled: object | None = field(default=None, repr=False)
    _compiled_built: bool = field(default=False, repr=False)

    @property
    def factors(self) -> Factors:
        return self.cds.factors

    @property
    def tree(self):
        return self.cds.tree

    @property
    def dim(self) -> int:
        """Matrix dimension N."""
        return self.cds.dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def sranks(self) -> np.ndarray:
        return self.factors.sranks

    @property
    def coarsenset(self) -> CoarsenSet:
        return self.cds.coarsenset

    @property
    def near_blockset(self) -> BlockSet:
        return self.cds.near_blockset

    @property
    def far_blockset(self) -> BlockSet:
        return self.cds.far_blockset

    # ------------------------------------------------------------- evaluation
    @property
    def batched_evaluator(self) -> GeneratedEvaluator | None:
        """The row-panel batched-GEMM evaluator, or None when the cost
        model rejected batch lowering (low bucket occupancy). Built
        lazily on the first product wider than
        :data:`~repro.api.policy.NARROW_Q_MAX` and cached — the inspector
        already paid for the structure analysis, so this is just table
        gathering + one ``compile``.
        """
        if not self._batched_built:
            self._batched_built = True
            if self.evaluator.decision.batch:
                from repro.codegen.emit import generate_batched_evaluator
                self._batched = generate_batched_evaluator(self.cds)
        return self._batched

    def attach_compiled(self, ev) -> None:
        """Attach the fused evaluator a
        :class:`~repro.codegen.compiled.CompiledCache` resolved for this
        matrix (None = unavailable: narrow panels run the row-panel
        evaluator)."""
        self._compiled = ev
        self._compiled_built = True

    def _batched_driver(self, q: int, q_chunk: int | None,
                        compiled_cache: CompiledCache | None = None):
        """The evaluator the batched order runs a ``q``-column panel on.

        A narrow panel that runs in one pass takes the fused driver,
        resolved through ``compiled_cache`` (the process-global cache
        when None); anything else, or an unavailable fused driver (a
        typed fallback counter in the cache), takes the row-panel
        evaluator, or the per-block code when batch lowering was
        rejected. Each driver's tables are built on the first product
        that needs them. All three are byte-identical.
        """
        if runs_fused(q, q_chunk):
            if compiled_cache is None:
                from repro.codegen.compiled import default_compiled_cache
                compiled_cache = default_compiled_cache()
            ev = compiled_cache.evaluator_for(self)
            if ev is not None:
                return ev
        batched = self.batched_evaluator
        return batched if batched is not None else self.evaluator

    def matmul(self, W: np.ndarray, pool=None, order: str | None = None,
               q_chunk: int | None = None,
               policy: "ExecutionPolicy | None" = None,
               compiled_cache: CompiledCache | None = None) -> np.ndarray:
        """``Y = K~ @ W`` with the generated specialized code.

        Knobs resolve through one :class:`~repro.api.policy.ExecutionPolicy`
        (explicit ``order``/``q_chunk`` win over ``policy``, which wins over
        :data:`~repro.api.policy.DEFAULT_POLICY`). ``order="batched"`` (the
        shared default) treats W rows as being in the user's input point
        order and picks its driver from the panel width: the fused
        frozen-table driver up to :data:`~repro.api.policy.NARROW_Q_MAX`
        columns (resolved through ``compiled_cache``, default the
        process-global one), the row-panel evaluator beyond, and the
        per-block code (with ``pool``) when the cost model rejected batch
        lowering. ``order="original"`` forces the per-block code;
        ``order="tree"`` runs it without either permutation
        (internal/benchmark use). ``q_chunk`` overrides the row-panel
        evaluator's streaming panel width (the single chunking layer —
        callers never chunk on top of it). When no ``pool`` is given and
        the policy asks for threads, a short-lived pool is created for
        this call.
        """
        pol = resolve_policy(policy, order=order, q_chunk=q_chunk)
        if pol.is_auto:
            # Profile-guided resolution (DESIGN.md section 9) through the
            # process-global tuner: repeated bare H.matmul(W) calls reuse
            # the profile tuned on the first one. Executor/Session carry
            # their own (PlanStore-persisted) tuner instead.
            from repro.tuning import resolve_auto
            pol = resolve_auto(self, W, pol)
        order, q_chunk = pol.order, pol.q_chunk
        if pool is None and pol.num_threads and pol.num_threads > 1:
            with ThreadPoolExecutor(max_workers=pol.num_threads) as tmp:
                return self.matmul(W, pool=tmp, order=order, q_chunk=q_chunk,
                                   compiled_cache=compiled_cache)
        W = np.ascontiguousarray(W, dtype=np.float64)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        if W.shape[0] != self.dim:
            raise ValueError(
                f"W has {W.shape[0]} rows but the HMatrix dimension is "
                f"{self.dim}"
            )
        if order == "batched":
            ev = self._batched_driver(W.shape[1], q_chunk, compiled_cache)
        else:  # "original" / "tree": the per-block code
            ev = self.evaluator
        if q_chunk is not None and ev.q_chunk != q_chunk:
            ev = replace(ev, q_chunk=q_chunk)
        if order == "tree":
            Y = ev(W, pool=pool)
        else:
            perm = self.tree.perm
            Y_tree = ev(W[perm], pool=pool)
            Y = np.empty_like(Y_tree)
            Y[perm] = Y_tree
        return Y[:, 0] if squeeze else Y

    def __matmul__(self, W: np.ndarray) -> np.ndarray:
        return self.matmul(W)

    # -------------------------------------------------------------- reporting
    def memory_bytes(self) -> int:
        return self.cds.total_bytes()

    def compression_ratio(self) -> float:
        dense = self.dim * self.dim * 8
        stored = self.memory_bytes()
        return dense / stored if stored else float("inf")

    def evaluation_flops(self, q: int) -> int:
        return self.factors.evaluation_flops(q)

    def summary(self) -> dict:
        """Human-readable structural summary (used by examples and logs)."""
        f = self.factors
        active = f.sranks[f.sranks > 0]
        return {
            "N": self.dim,
            "structure": f.htree.structure,
            "tree_height": self.tree.height,
            "num_leaves": int(len(self.tree.leaves)),
            "near_interactions": f.htree.num_near(),
            "far_interactions": f.htree.num_far(),
            "mean_srank": float(active.mean()) if len(active) else 0.0,
            "max_srank": int(active.max()) if len(active) else 0,
            "memory_mb": self.memory_bytes() / 2**20,
            "compression_ratio": self.compression_ratio(),
            "lowering": {
                "block_near": self.evaluator.decision.block_near,
                "block_far": self.evaluator.decision.block_far,
                "coarsen": self.evaluator.decision.coarsen,
                "peel_root": self.evaluator.decision.peel_root,
                "batch": self.evaluator.decision.batch,
            },
        }
