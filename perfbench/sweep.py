"""Workload ``accuracy_sweep``: the paper's Fig. 10 inspection-reuse loop.

One rep, in a fresh process: phase 1 runs once (inside the first, cold
inspect); then the block accuracy steps 1e-1 .. 1e-5 and the kernel
changes once (Gaussian -> Laplace at 1e-5), each change re-running only
phase 2 against the cached phase-1 artifacts, persisting to a disk-backed
``PlanStore``, and running one Q=512 product. Last, a fresh ``Session``
over the same store serves the final configuration (warm start).

Why: the inspector and the store do most of the work here; the executor
runs only at wide Q, which bypasses the narrow-Q fused driver; the
serving layers sit idle.
"""

from __future__ import annotations

import numpy as np

from common import now

N = 2000
Q = 512
BACCS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
BANDWIDTH = 5.0
#: eps_f (relative Frobenius error of sampled rows of Y against the exact
#: dense product) must stay within this multiple of the step's bacc.
EPS_FACTOR = 10.0
#: rows of Y checked against exact dense rows per step
CHECK_ROWS = 64
#: The point set is fixed, like grid's: covtype stand-ins drawn with
#: other seeds differ in compression cost by up to ~45%, which would swamp
#: run-to-run comparisons. --seed draws W and the checked rows.
DATA_SEED = 0

#: the worker process itself runs the traced layers
TRACE_IN_PROCESS = True


def run(seed: int, workdir, *, tracer=None, **_unused) -> dict:
    from repro import PlanConfig, PlanStore, Session, get_kernel, load_dataset

    points = load_dataset("covtype", n=N, seed=DATA_SEED)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((N, Q))
    rows = np.sort(rng.choice(N, size=CHECK_ROWS, replace=False))
    gaussian = get_kernel("gaussian", bandwidth=BANDWIDTH)
    laplace = get_kernel("laplace", bandwidth=BANDWIDTH)
    steps = [(gaussian, bacc) for bacc in BACCS] + [(laplace, BACCS[-1])]
    plan = PlanConfig(leaf_size=32, p=4, bacc=BACCS[0])
    store_dir = workdir / "store"
    t_ready = now()

    inspect_s, product_s, flops, sampled = [], [], [], []
    counts = {"p2.rank_sum": 0, "cds.bytes": 0, "exec.flops": 0,
              "exec.bytes": 0}
    t0 = now()
    with Session(plan=plan, store=PlanStore(store_dir)) as session:
        for kernel, bacc in steps:
            t_a = now()
            H = session.inspect(points, kernel=kernel, bacc=bacc)
            t_b = now()
            Y = session.matmul(H, W)
            t_c = now()
            inspect_s.append(t_b - t_a)
            product_s.append(t_c - t_b)
            sampled.append(Y[rows].copy())
            flops.append(H.evaluation_flops(Q))
            cds_bytes = H.memory_bytes()
            counts["p2.rank_sum"] += int(H.sranks.sum())
            counts["cds.bytes"] += cds_bytes
            counts["exec.flops"] += flops[-1]
            counts["exec.bytes"] += cds_bytes + 2 * 8 * N * Q
        stats = session.stats
        counts["session.p1_builds"] = stats.p1_builds
        counts["session.p2_builds"] = stats.p2_builds
    t_sweep = now() - t0
    if tracer is not None:
        tracer.mark("main", t0, t0 + t_sweep)
    Y_cold = Y

    t0 = now()
    with Session(plan=plan, store=PlanStore(store_dir)) as warm:
        H = warm.inspect(points, kernel=laplace, bacc=BACCS[-1])
        Y_warm = warm.matmul(H, W)
        warm_builds = warm.stats.p1_builds + warm.stats.p2_builds
    t_warm = now() - t0
    counts["warm.builds"] = warm_builds

    checks = []
    for (kernel, bacc), Ys in zip(steps, sampled, strict=True):
        exact = kernel.block(points[rows], points) @ W
        eps = float(np.linalg.norm(Ys - exact) / np.linalg.norm(exact))
        checks.append({"name": f"eps_f {kernel.name} bacc={bacc:g}",
                       "ok": eps <= EPS_FACTOR * bacc,
                       "detail": f"eps_f={eps:.3e} limit={EPS_FACTOR * bacc:.1e}"})
    checks.append({"name": "warm-start product byte-identical to cold",
                   "ok": Y_warm.tobytes() == Y_cold.tobytes(),
                   "detail": f"max|diff|={np.abs(Y_warm - Y_cold).max():.3e}"})
    checks.append({"name": "warm start ran no inspection",
                   "ok": warm_builds == 0, "detail": f"builds={warm_builds}"})

    # per-product rates: one slow product (a descheduled BLAS thread)
    # moves the median of the pooled rates, not the whole rep
    gflops = [f / t / 1e9 for f, t in zip(flops, product_s, strict=True)]
    recompile = inspect_s[1:]
    return {
        "t_ready": t_ready,
        "metrics": {"compile_s": inspect_s[:1], "recompile_s": recompile,
                    "sweep_s": [t_sweep], "eval_gflops": gflops,
                    "warm_start_s": [t_warm]},
        "raw": {"inspect_s": inspect_s, "product_s": product_s},
        "counts": counts,
        "checks": checks,
        # operations: the six sweep steps, then the warm start
        "attempted": len(steps) + 1,
        "failed": (sum(not c["ok"] for c in checks[:len(steps)])
                   + (not all(c["ok"] for c in checks[len(steps):]))),
    }
