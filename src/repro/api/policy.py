"""Execution policy: the single way evaluation knobs travel.

Before this layer existed, execution knobs were scattered — ``order=`` /
``pool=`` / ``num_threads=`` / ``q_chunk=`` keyword arguments with
*inconsistent* defaults (``matmul`` defaulted to ``"original"`` while
``matmul_many`` defaulted to ``"batched"``). :class:`ExecutionPolicy`
replaces that: one frozen, validated object carried from the CLI, a
:class:`~repro.api.session.Session`, an :class:`~repro.core.executor.Executor`,
or a solver down to :meth:`HMatrix.matmul`.

There is exactly one documented default, :data:`DEFAULT_POLICY`:

* ``order="batched"`` — the one batched order. It picks its driver from
  the width of the panel it is handed: panels of at most
  :data:`NARROW_Q_MAX` columns run the fused frozen-table driver
  (:mod:`repro.codegen.compiled`), wider panels the row-panel evaluator
  with q-chunk streaming (:mod:`repro.codegen.emit`). The two drivers
  are byte-identical, so the width only decides speed. Both fall back
  bit-compatibly to the per-block code whenever the cost model rejected
  batch lowering, so the order is a strict superset of the old
  ``"original"`` default. ``"compiled"`` is a deprecated spelling of it
  (stored profiles, CLI flags and wire requests still parse);
* ``num_threads=None`` — serial (no thread pool);
* ``q_chunk=None`` — the generated evaluator's own streaming panel width
  (:data:`DEFAULT_Q_CHUNK` columns), the cache-sized chunking the codegen
  already selected.

This module is intentionally dependency-free (stdlib only) so that core
modules can import it without cycles.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace

#: Streaming panel width used when a policy does not override ``q_chunk``:
#: 256 float64 columns over a typical leaf keeps one pass's W/Y/T/S working
#: set inside the last-level cache (see DESIGN.md section 3).
DEFAULT_Q_CHUNK = 256

#: Panels of at most this many columns run the fused frozen-table driver
#: under the batched order; wider panels run the row-panel evaluator. A
#: measured crossover, not a knob (DESIGN.md section 12.1 has the rows).
NARROW_Q_MAX = 4


def runs_fused(q: int, q_chunk: int | None = None) -> bool:
    """Whether the batched order runs a ``q``-column panel on the fused
    driver: the panel is narrow and runs in one pass (an explicit
    ``q_chunk`` narrower than it streams through the row-panel
    evaluator instead)."""
    return 0 < q <= NARROW_Q_MAX and (q_chunk is None or q <= q_chunk)

#: The evaluation orders an :class:`ExecutionPolicy` may request.
#: ``"compiled"`` is a deprecated spelling of ``"batched"``: a policy
#: built with it holds ``order="batched"``.
#: ``"auto"`` defers the choice to the profile-guided autotuner
#: (:mod:`repro.tuning`): it resolves to one of the concrete orders (and a
#: thread/q_chunk setting) before any evaluator runs.
VALID_ORDERS = ("batched", "compiled", "original", "tree", "auto")


def effective_cpu_count() -> int:
    """CPUs this process may actually run on (never 0).

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup CPU limit or a restricted affinity mask (CI containers,
    ``taskset``, SLURM), sizing a pool by it oversubscribes the granted
    cores and stalls. Prefer the scheduler-affinity mask where the
    platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        with contextlib.suppress(OSError):  # pragma: no cover - quirk
            return max(1, len(getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def coalesce_policy(policy: "ExecutionPolicy | None",
                    fallback: "ExecutionPolicy") -> "ExecutionPolicy":
    """``policy`` unless it is ``None`` — identity, never truthiness.

    The one shared resolution helper: ``policy or fallback`` would
    silently swap an explicitly passed policy for the fallback if an
    ExecutionPolicy were ever falsy (a future ``__bool__``/``__len__``,
    or a duck-typed stand-in). Every layer (``Executor``, ``Session``,
    operators, free functions) routes through this instead.
    """
    return policy if policy is not None else fallback


@dataclass(frozen=True)
class ExecutionPolicy:
    """How an HMatrix product is executed (not *what* is computed).

    Parameters
    ----------
    order:
        ``"batched"`` (default) evaluates through the bucketed batched-GEMM
        engine: panels of at most :data:`NARROW_Q_MAX` columns run the
        fused frozen-table driver, wider ones the row-panel evaluator
        (byte-identical drivers; the width only picks the faster one).
        It falls back to the per-block code when the cost model
        rejected batch lowering. ``"compiled"`` is a deprecated spelling
        of ``"batched"`` and is stored as it. ``"original"`` forces the
        per-block code. Both orders treat W rows as being in the user's
        input point order.
        ``"tree"`` skips the permutations (internal/benchmark use).
        ``"auto"`` resolves through the profile-guided autotuner
        (:mod:`repro.tuning`) at evaluation time: a
        :class:`~repro.tuning.TuningProfile` keyed by HMatrix
        fingerprint x RHS-width bucket x host signature picks the
        concrete order/thread/q_chunk setting. Knobs set explicitly
        alongside ``order="auto"`` are *pinned*: the tuner only chooses
        among candidates that honor them.
    num_threads:
        Worker threads for the per-block code path. ``None`` or 1 runs
        serially. NumPy's BLAS releases the GIL inside GEMM, so block tasks
        overlap on real cores.
    q_chunk:
        Streaming panel width (columns per pass) override. ``None`` keeps
        the generated evaluator's own cache-sized width.
    """

    order: str = "batched"
    num_threads: int | None = None
    q_chunk: int | None = None

    def __post_init__(self) -> None:
        if self.order not in VALID_ORDERS:
            raise ValueError(
                f"order must be one of {VALID_ORDERS}, got {self.order!r}"
            )
        if self.order == "compiled":
            object.__setattr__(self, "order", "batched")
        if self.num_threads is not None and self.num_threads < 1:
            raise ValueError(
                f"num_threads must be >= 1, got {self.num_threads}"
            )
        if self.q_chunk is not None and self.q_chunk < 1:
            raise ValueError(f"q_chunk must be >= 1, got {self.q_chunk}")

    @property
    def is_auto(self) -> bool:
        """True when this policy defers to the autotuner (``order="auto"``)."""
        return self.order == "auto"

    def merged(self, order: str | None = None,
               num_threads: int | None = None,
               q_chunk: int | None = None) -> "ExecutionPolicy":
        """This policy with any explicitly-given knobs overriding it."""
        updates: dict[str, object] = {}
        if order is not None:
            updates["order"] = order
        if num_threads is not None:
            updates["num_threads"] = num_threads
        if q_chunk is not None:
            updates["q_chunk"] = q_chunk
        return replace(self, **updates) if updates else self


#: The one documented default execution policy (see module docstring).
DEFAULT_POLICY = ExecutionPolicy()


def resolve_policy(policy: ExecutionPolicy | None = None,
                   order: str | None = None,
                   num_threads: int | None = None,
                   q_chunk: int | None = None,
                   fallback: ExecutionPolicy | None = None) -> ExecutionPolicy:
    """Fold loose keyword knobs and an optional policy into one policy.

    Explicit keywords win over ``policy``, which wins over ``fallback``
    (a carrier's own default, e.g. an ``Executor``'s), which wins over
    :data:`DEFAULT_POLICY`. ``None`` is resolved by identity, never
    truthiness (see :func:`coalesce_policy`). This is the single
    resolution rule every entry point (free functions, ``Executor``,
    ``Session``, CLI) uses.
    """
    base = coalesce_policy(policy,
                           coalesce_policy(fallback, DEFAULT_POLICY))
    return base.merged(order=order, num_threads=num_threads,
                       q_chunk=q_chunk)
