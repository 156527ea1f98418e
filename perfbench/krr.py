"""Workload ``krr_solve``: kernel ridge regression through a ``Session``.

One rep, in a fresh process: a set-up inspects grid (2-D, N=4000,
Gaussian bandwidth 0.5, leaf 32, bacc 1e-5) into a memory-only store,
builds the lazy evaluator and runs the first product; it runs SETUPS
times, each in a fresh ``Session``. On the last session the solve path
fits ``KernelRidgeRegression(session=...)`` for every lambda x target
pair at CG tol 1e-6 under the default policy, PATHS times; every fit
re-enters ``Session.inspect`` (a cache hit) and runs ~100 Q=1 products.

Why: hundreds of Q=1 products, the regime where Python dispatch
dominates a product; the inspector runs only in set-up. Grid, not higgs:
on higgs the batched and compiled orders tie, so a narrow-Q change would
not show.

Lambda: {1e-2, 5e-3}. At bacc 1e-5 the compressed ``K~ + 1e-3 I`` (and
``+ 2e-3 I``) is not numerically positive definite on this input -- CG
stops at ``p'Ap <= 0`` after ~40-90 iterations, unconverged -- so the
smaller lambda of the pair is 5e-3, the smallest tried at which every
fit converges with margin.
"""

from __future__ import annotations

import numpy as np

from common import now

N = 4000
BANDWIDTH = 0.5
BACC = 1e-5
LAMBDAS = (1e-2, 5e-3)
TARGETS = 2
CG_TOL = 1e-6
#: solve paths per rep; solve_s is the median path time
PATHS = 2
#: cold set-ups per rep, each in a fresh Session with its own
#: memory-only store (the last one serves the solve paths)
SETUPS = 2

#: the worker process itself runs the traced layers
TRACE_IN_PROCESS = True


def run(seed: int, workdir, *, tracer=None, **_unused) -> dict:
    from repro import (
        KernelRidgeRegression,
        PlanConfig,
        Session,
        get_kernel,
        load_dataset,
    )

    X = load_dataset("grid", n=N, seed=seed)
    rng = np.random.default_rng(seed)
    targets = [rng.standard_normal(N) for _ in range(TARGETS)]
    kernel = get_kernel("gaussian", bandwidth=BANDWIDTH)
    plan = PlanConfig(leaf_size=32, bacc=BACC)
    t_ready = now()

    compile_s, setup_s = [], []
    for _ in range(SETUPS - 1):
        with Session(plan=plan) as session:
            setup(session, X, kernel, compile_s, setup_s)
    with Session(plan=plan) as session:
        H = setup(session, X, kernel, compile_s, setup_s)
        flops1 = H.evaluation_flops(1)

        fits, fit_s, path_s, path_products = [], [], [], []
        for _ in range(PATHS):
            evals0 = session.stats.evaluations
            t0 = now()
            for lam in LAMBDAS:
                for y in targets:
                    t_a = now()
                    model = KernelRidgeRegression(
                        kernel=kernel, lam=lam, plan=plan, cg_tol=CG_TOL,
                        session=session).fit(X, y)
                    fit_s.append(now() - t_a)
                    fits.append((lam, y, model))
            path_s.append(now() - t0)
            path_products.append(session.stats.evaluations - evals0)
            if tracer is not None:
                tracer.mark("main", t0, t0 + path_s[-1])

        checks, iterations = [], []
        for lam, y, model in fits:
            res = model.cg_result_
            resid = model.training_residual(y)
            iterations.append(int(res.iterations))
            checks.append({
                "name": f"fit lam={lam:g} converged, residual <= tol",
                "ok": bool(res.converged) and resid <= CG_TOL,
                "detail": f"iterations={res.iterations} residual={resid:.3e}"})
        per_path = len(LAMBDAS) * TARGETS
        counts = {"cg.iterations": sum(iterations[:per_path]),
                  "exec.calls": path_products[0],
                  "exec.flops": path_products[0] * flops1,
                  "p2.rank_sum": int(H.sranks.sum()),
                  "cds.bytes": int(H.memory_bytes()),
                  "session.p1_builds": session.stats.p1_builds,
                  "session.p2_builds": session.stats.p2_builds}

    per_iter_ms = [t / max(it, 1) * 1e3
                   for t, it in zip(fit_s, iterations, strict=True)]
    gflops = [n * flops1 / t / 1e9
              for n, t in zip(path_products, path_s, strict=True)]
    return {
        "t_ready": t_ready,
        "metrics": {"setup_s": setup_s, "compile_s": compile_s,
                    "solve_s": path_s, "iteration_ms": per_iter_ms,
                    "eval_gflops": gflops},
        "raw": {"fit_s": fit_s, "iterations": iterations},
        "counts": counts,
        "checks": checks,
        "attempted": len(fits),
        "failed": sum(not c["ok"] for c in checks),
    }


def setup(session, X, kernel, compile_s: list, setup_s: list):
    """Cold inspect, then the first product (builds the lazy evaluator)."""
    t0 = now()
    H = session.inspect(X, kernel=kernel)
    compile_s.append(now() - t0)
    session.matmul(H, np.ones(len(X)))
    setup_s.append(now() - t0)
    return H
