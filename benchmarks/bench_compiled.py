"""Compiled executor benchmark: the default order vs the row-panel evaluator.

The default ``order="batched"`` picks its driver by panel width: up to
``NARROW_Q_MAX`` columns the fused frozen-table driver of
``repro.codegen.compiled``, beyond it the row-panel evaluator of
``repro.codegen.emit``. The baseline here is the row-panel evaluator
called directly (``H.batched_evaluator`` on the tree-ordered panel, with
the same permutation ``HMatrix.matmul`` applies), so the benchmark keeps
timing the same two drivers it always did.

Two claims:

1. **The fused driver wins where Python overhead dominates.** At Q=1
   the row-panel evaluator spends most of its wall-clock in per-panel
   Python dispatch, gather/scatter temporaries, and allocation; the
   fused driver precomputes every index table and preallocates every
   buffer, so a single call is one straight-line sweep. Gate: >= 2x at
   Q=1 (enforced only on full-scale, non-quick runs — a scaled-down
   bench-smoke problem has too little arithmetic for the ratio to
   stabilise). The default order must be *byte-identical* to the
   row-panel evaluator at every swept width, quick mode or not. Rows
   wider than ``NARROW_Q_MAX`` run one driver on both sides: they are
   the A/A noise floor.
2. **Artifacts persist.** A fresh :class:`CompiledCache` over the same
   PlanStore serves the evaluator with zero recompiles
   (``warm_recompiles == 0``), asserted unconditionally.

Results land in ``benchmarks/results/compiled.json`` for
``validate_results.py`` (bit-identity and warm_recompiles gates are
unconditional there too; the speedup gate keys off the recorded
``gate_eligible`` flag, mirroring fig7's cpu_count exemption).
"""

import os
from dataclasses import replace

import numpy as np

from repro.api.policy import effective_cpu_count
from repro.api.store import PlanStore
from repro.codegen.compiled import (
    NARROW_Q_MAX,
    CompiledCache,
    available_backends,
)
from repro.core.inspector import Inspector
from repro.datasets import load_dataset
from repro.kernels import get_kernel

from conftest import (
    BENCH_QUICK,
    PAPER_BACC,
    bench_n,
    best_seconds,
    fmt,
    print_table,
    save_results,
)

DATASET = "grid"
LEAF = 32
#: RHS widths swept: the fused-driver regime (Q=1), a mid panel past the
#: narrow-Q threshold (the row-panel evaluator on both sides — ratio
#: ~1.0 by design), and a wide panel.
SWEEP_Q = tuple(
    int(q) for q in os.environ.get("MATROX_COMPILED_Q", "1 32 512").split()
)
#: Extra reps for narrow widths — a single fused call is sub-millisecond,
#: so min-of-reps needs a deeper pool for the >= 2x gate to be stable.
NARROW_REPS = int(os.environ.get("MATROX_COMPILED_REPS", "30"))


def _bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_compiled_vs_row_panel(tmp_path_factory):
    n = bench_n(DATASET)
    points = load_dataset(DATASET, n=n, seed=0)
    insp = Inspector(structure="h2-geometric", tau=0.65, bacc=PAPER_BACC,
                     leaf_size=LEAF, p=4, seed=0)
    H = insp.run(points, get_kernel("gaussian", bandwidth=5.0))

    store_dir = tmp_path_factory.mktemp("compiled-store")
    cold = CompiledCache(store=PlanStore(store_dir))
    ev = cold.evaluator_for(H)
    assert ev is not None, (
        f"compiled build degraded: {cold.stats_dict()['fallbacks']}")

    row_panel_ev = H.batched_evaluator
    perm = H.tree.perm

    def row_panel(W):
        Y = np.empty_like(W)
        Y[perm] = row_panel_ev(W[perm])
        return Y

    def default(W):
        return H.matmul(W, compiled_cache=cold)

    rng = np.random.default_rng(0)
    shapes, rows, bit_identical = {}, [], True
    for q in SWEEP_Q:
        W = rng.random((n, q))
        same = _bytes(row_panel(W)) == _bytes(default(W))
        bit_identical = bit_identical and same

        reps = NARROW_REPS if q <= NARROW_Q_MAX else None
        row_panel_s = best_seconds(lambda: row_panel(W), reps=reps)
        default_s = best_seconds(lambda: default(W), reps=reps)
        fused = q <= NARROW_Q_MAX
        shapes[str(q)] = {
            "row_panel_s": row_panel_s,
            "default_s": default_s,
            "speedup": row_panel_s / default_s,
            "bit_identical": same,
            "fused": fused,
        }
        rows.append([q, "fused" if fused else "row-panel (A/A)",
                     fmt(row_panel_s * 1e3), fmt(default_s * 1e3),
                     fmt(row_panel_s / default_s),
                     "yes" if same else "NO"])

    # Warm restart: a fresh cache over the same store, with a rebuilt-
    # from-scratch HMatrix view (no attached evaluators), must serve the
    # artifact without deriving a single table.
    warm = CompiledCache(store=PlanStore(store_dir))
    H2 = replace(H, _batched=None, _batched_built=False,
                 _compiled=None, _compiled_built=False)
    assert warm.evaluator_for(H2) is not None
    warm_recompiles = warm.stats.builds

    print_table(
        f"Default order vs row-panel evaluator ({DATASET}, N={n}, "
        f"backend={ev.backend}, {effective_cpu_count()} effective cpus)",
        ["q", "default driver", "row-panel (ms)", "default (ms)", "speedup",
         "bitwise"],
        rows,
    )

    speedup_q1 = shapes.get("1", {}).get("speedup")
    gate_eligible = not BENCH_QUICK and "1" in shapes
    save_results("compiled", {
        "dataset": DATASET, "n": n, "sweep_q": list(SWEEP_Q),
        "baseline": "row-panel evaluator (H.batched_evaluator), called "
                    "directly",
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "backend": ev.backend,
        "backends_available": list(available_backends()),
        "narrow_q_max": NARROW_Q_MAX,
        "shapes": shapes,
        "speedup_q1": speedup_q1,
        "bit_identical": bit_identical,
        "cold_builds": cold.stats.builds,
        "warm_recompiles": warm_recompiles,
        "warm_store_hits": warm.stats.store_hits,
        "gate_eligible": gate_eligible,
    })

    assert bit_identical, (
        "default-order output diverged from the row-panel evaluator")
    assert warm_recompiles == 0, (
        "PlanStore-persisted compiled artifacts must warm-start")
    assert warm.stats.store_hits == 1
    if gate_eligible and speedup_q1 is not None:
        assert speedup_q1 >= 2.0, (
            f"the default order is only {speedup_q1:.2f}x the row-panel "
            f"evaluator at Q=1 (gate: >= 2x on full-scale runs)")
