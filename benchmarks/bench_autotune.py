"""Autotuner benchmark: auto vs every fixed policy, plus warm restarts.

Two claims from the ``repro.tuning`` tentpole (ISSUE 5):

1. **Auto is never meaningfully worse than the best fixed policy.** For
   each swept RHS shape, ``order="auto"`` must land within 10% of the
   best fixed policy in its candidate grid (it literally *is* one of
   them after resolution — the margin covers resolution overhead and
   trial-vs-replay noise), and it must beat the fixed
   ``DEFAULT_POLICY`` outright on at least one shape unless it chose
   the default everywhere. Auto and every fixed candidate are timed in
   interleaved rounds, the order rotated each round, and the gate reads
   the median over rounds of the per-round auto / best-fixed ratio. A
   min-of-reps per contender, timed back to back, timed one batched
   policy ~1.3x apart against itself on a shared 2-vCPU host.
2. **Profiles persist.** A fresh tuner over the same PlanStore resolves
   every swept shape with zero re-tunes (``warm_retunes == 0``).

Results land in ``benchmarks/results/autotune.json`` for
``validate_results.py`` (which enforces both gates on the committed
artifact unconditionally; the wall-clock assertion here additionally
relaxes under ``MATROX_BENCH_QUICK`` like every other timing gate).
"""

import math
import os
import statistics
import time

import numpy as np

from repro.api.policy import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    effective_cpu_count,
)
from repro.api.store import PlanStore
from repro.core.executor import Executor
from repro.core.inspector import Inspector
from repro.datasets import load_dataset
from repro.kernels import get_kernel
from repro.tuning import Autotuner
from repro.tuning.profile import policy_from_knobs, policy_knobs

from conftest import (
    BENCH_QUICK,
    BENCH_REPS,
    PAPER_BACC,
    bench_n,
    fmt,
    print_table,
    save_results,
)

DATASET = "grid"
LEAF = 32
#: RHS widths swept (one tuning profile per bucket): single vector, the
#: mid panel, and a wide panel past the default q_chunk.
SWEEP_Q = tuple(
    int(q) for q in os.environ.get("MATROX_AUTOTUNE_Q", "1 32 512").split()
)

#: Timing rounds per shape (each round times every contender once).
ROUNDS = max(3 * BENCH_REPS, 1)
#: One timing repeats a contender's call until it spans at least this
#: long, so a one-millisecond Q=1 product is not timed alone.
MIN_TIMING_S = 0.05


def _label(knobs: dict) -> str:
    """Canonical policy label: full knob set, defaults included."""
    full = policy_knobs(policy_from_knobs(dict(knobs)))
    return ",".join(f"{k}={v}" for k, v in sorted(full.items()))


def _interleaved_seconds(calls: dict, rounds: int) -> dict:
    """Per-call seconds of every contender, one sample per round.

    Each round times every contender once. The order rotates by one
    contender every two rounds and runs backwards on odd rounds: a
    rotation alone keeps each contender's predecessor fixed, and a
    batched product run right after a per-block one is slower while it
    re-warms the caches the other product evicted. Each timed block of
    calls also follows an untimed block of the same length.
    """
    clock = time.perf_counter
    names = list(calls)
    inner = {}
    for name in names:
        calls[name]()                   # warm-up
        t0 = clock()
        calls[name]()
        inner[name] = max(1, math.ceil(MIN_TIMING_S / (clock() - t0)))
    samples: dict = {name: [] for name in names}
    for r in range(rounds):
        base = names if r % 2 == 0 else names[::-1]
        shift = (r // 2) % len(names)
        for name in base[shift:] + base[:shift]:
            fn, k = calls[name], inner[name]
            for _ in range(k):
                fn()
            t0 = clock()
            for _ in range(k):
                fn()
            samples[name].append((clock() - t0) / k)
    return samples


def _median_ratio(num: list, den: list) -> float:
    return statistics.median(a / b for a, b in zip(num, den, strict=True))


def test_autotune_auto_vs_fixed(tmp_path_factory):
    n = bench_n(DATASET)
    points = load_dataset(DATASET, n=n, seed=0)
    insp = Inspector(structure="h2-geometric", tau=0.65, bacc=PAPER_BACC,
                     leaf_size=LEAF, p=4, seed=0)
    H = insp.run(points, get_kernel("gaussian", bandwidth=5.0))

    store_dir = tmp_path_factory.mktemp("profile-store")
    tuner = Autotuner(store=PlanStore(store_dir), min_measured_flops=0.0)
    auto = ExecutionPolicy(order="auto")
    default_label = _label(policy_knobs(DEFAULT_POLICY))

    rng = np.random.default_rng(0)
    shapes, rows = {}, []
    for q in SWEEP_Q:
        W = rng.random((n, q))
        executors = {_label(knobs): Executor(policy=policy_from_knobs(knobs))
                     for knobs in tuner.candidate_policies(H, q)}
        executors["auto"] = Executor(policy=auto, autotuner=tuner)
        calls = {label: (lambda ex=ex, W=W: ex.matmul(H, W))
                 for label, ex in executors.items()}
        try:
            calls["auto"]()                 # tunes (and persists) here
            chosen = _label(policy_knobs(tuner.resolve(H, q, auto)))
            samples = _interleaved_seconds(calls, ROUNDS)
        finally:
            for ex in executors.values():
                ex.close()

        auto_samples = samples.pop("auto")
        fixed_s = {label: statistics.median(ts)
                   for label, ts in samples.items()}
        best_label = min(fixed_s, key=fixed_s.__getitem__)
        auto_over_best = _median_ratio(auto_samples, samples[best_label])
        auto_over_default = _median_ratio(auto_samples,
                                          samples[default_label])
        auto_s = statistics.median(auto_samples)
        shapes[str(q)] = {
            "auto_s": auto_s,
            "auto_policy": chosen,
            "fixed_s": fixed_s,
            "best_fixed": best_label,
            "best_fixed_s": fixed_s[best_label],
            "default_s": fixed_s[default_label],
            "rounds": ROUNDS,
            "auto_over_best_fixed": auto_over_best,
            "auto_over_default": auto_over_default,
        }
        rows.append([q, chosen, fmt(auto_s * 1e3), best_label,
                     fmt(fixed_s[best_label] * 1e3), fmt(auto_over_best),
                     fmt(auto_over_default)])

    # Warm restart: a fresh tuner over the same store must re-tune nothing.
    warm = Autotuner(store=PlanStore(store_dir), min_measured_flops=0.0)
    for q in SWEEP_Q:
        warm.resolve(H, q, auto)
    warm_retunes = warm.stats.tunes

    print_table(
        f"Autotune: auto vs fixed policies ({DATASET}, N={n}, "
        f"{effective_cpu_count()} effective cpus, medians of {ROUNDS} "
        f"interleaved rounds)",
        ["q", "auto picked", "auto (ms)", "best fixed", "best (ms)",
         "auto/best", "auto/default"],
        rows,
    )

    ratio_max = max(s["auto_over_best_fixed"] for s in shapes.values())
    beats_default = [q for q, s in shapes.items()
                     if s["auto_over_default"] < 1.0]
    always_default = all(s["auto_policy"] == default_label
                         for s in shapes.values())
    save_results("autotune", {
        "dataset": DATASET, "n": n, "sweep_q": list(SWEEP_Q),
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpu_count(),
        "shapes": shapes,
        "auto_over_best_fixed_max": ratio_max,
        "auto_beats_default_shapes": beats_default,
        "auto_always_default": always_default,
        "warm_retunes": warm_retunes,
        "tunes": tuner.stats.tunes,
        "trials": tuner.stats.trials,
    })

    assert warm_retunes == 0, "PlanStore-persisted profiles must warm-start"
    if not BENCH_QUICK:
        assert ratio_max <= 1.10, (
            f"auto is {ratio_max:.2f}x the best fixed policy "
            f"(gate: within 10%)")
