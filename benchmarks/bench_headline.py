"""Headline numbers: the abstract's claims in one table.

* generated code vs GOFMM / SMASH / STRUMPACK evaluation: 2.98x / 1.60x /
  5.98x average in the paper;
* vs dense GEMM: ~18x overall at Q=2K (and 9.06x / 2.11x on covtype
  specifically, Section 2.2);
* reuse over 5 accuracy changes: 2.21x vs GOFMM.

Our substrate is a simulated machine at scaled N, so the check is on
*who wins and roughly by how much*, not on matching decimals.
"""

import os

import numpy as np

from repro.baselines import DenseGEMM, MatRoxSystem
from repro.core.executor import Executor
from repro.core.inspector import Inspector
from repro.datasets import DATASETS, dataset_names, load_dataset
from repro.kernels import get_kernel
from repro.runtime import HASWELL

from conftest import (
    BENCH_Q,
    BENCH_QUICK,
    GAUSS_BW,
    PAPER_BACC,
    PAPER_P,
    bench_n as bench_n_of,
    best_seconds,
    fmt,
    print_table,
    save_results,
    scaled_machine,
)

# Default dataset for the wall-clock executor comparison: grid, the paper's
# largest scientific set (Table 1, N=102K), whose geometry the quickstart
# mirrors. Leaf size is scaled with bench N the same way PAPER_LEAF is —
# at 1.5% of the paper's N a leaf of 16 keeps the per-block GEMMs in the
# small-generator regime the paper's blocking analysis produces at 100K.
WALLCLOCK_DATASET = "grid"
WALLCLOCK_LEAF = 16
WALLCLOCK_Q = 64


def test_headline_batched_executor_wallclock(benchmark):
    """The batched bucketed-GEMM engine vs the seed per-block executor.

    Real execution, no simulation: identical numerics (<1e-12 relative
    across serial / threaded / batched paths) and >= 2x
    wall-clock on the default dataset at Q=64 (threshold relaxed in
    MATROX_BENCH_QUICK smoke runs — the numbers are still recorded).
    """
    n = bench_n_of(WALLCLOCK_DATASET)
    points = load_dataset(WALLCLOCK_DATASET, n=n, seed=0)
    insp = Inspector(structure="h2-geometric", tau=0.65, bacc=PAPER_BACC,
                     leaf_size=WALLCLOCK_LEAF, p=PAPER_P, seed=0)
    H = insp.run(points, get_kernel("gaussian", bandwidth=GAUSS_BW))
    assert H.evaluator.decision.batch, "cost model must accept batch lowering"
    W = np.random.default_rng(0).random((n, WALLCLOCK_Q))

    def run():
        y_serial = H.matmul(W, order="original")
        y_batched = H.matmul(W, order="batched")
        with Executor(num_threads=4) as ex:
            y_threaded = ex.matmul(H, W, order="original")
        t_serial = best_seconds(lambda: H.matmul(W, order="original"))
        t_batched = best_seconds(lambda: H.matmul(W, order="batched"))
        return y_serial, y_threaded, y_batched, t_serial, t_batched

    (y_serial, y_threaded, y_batched,
     t_serial, t_batched) = benchmark.pedantic(run, rounds=1, iterations=1)

    scale = np.linalg.norm(y_serial)
    err_batched = np.linalg.norm(y_batched - y_serial) / scale
    err_threaded = np.linalg.norm(y_threaded - y_serial) / scale
    speedup = t_serial / t_batched
    print_table(
        f"Headline: batched executor wall-clock ({WALLCLOCK_DATASET}, "
        f"N={n}, Q={WALLCLOCK_Q}, real execution)",
        ["executor", "time (ms)", "speedup", "rel. error vs serial"],
        [
            ["per-block (seed)", fmt(t_serial * 1e3), "1.00", "--"],
            ["threaded", "--", "--", f"{err_threaded:.2e}"],
            ["batched", fmt(t_batched * 1e3), fmt(speedup), f"{err_batched:.2e}"],
        ],
    )
    save_results("headline_batched", {
        "dataset": WALLCLOCK_DATASET, "n": n, "q": WALLCLOCK_Q,
        "serial_s": t_serial, "batched_s": t_batched, "speedup": speedup,
        "cpu_count": os.cpu_count(),
        "err_batched": err_batched, "err_threaded": err_threaded,
    })

    assert err_batched < 1e-12
    assert err_threaded < 1e-12
    if not BENCH_QUICK:
        assert speedup >= 2.0, (
            f"batched executor only {speedup:.2f}x faster than per-block"
        )


def test_headline_speedups(pipelines, systems, benchmark):
    def run():
        per_system = {"gofmm": [], "strumpack": [], "smash": [], "gemm": []}
        for name in dataset_names():
            H, _p1, _insp, points, kernel = pipelines.get(name, "h2-b")
            machine = scaled_machine(HASWELL, len(points))
            mx = MatRoxSystem(H)
            t_m = mx.simulate(H.factors, BENCH_Q, machine, p=PAPER_P).time_s
            t_g = systems["gofmm"].simulate(
                H.factors, BENCH_Q, machine, p=PAPER_P).time_s
            per_system["gofmm"].append((name, t_g / t_m))

            t_d = DenseGEMM().simulate(H.factors, BENCH_Q, machine,
                                       p=PAPER_P).time_s
            per_system["gemm"].append((name, t_d / t_m))

            spec = DATASETS[name]
            # STRUMPACK: HSS structure on the datasets it supports.
            if systems["strumpack"].supports(spec.paper_n, spec.dim,
                                             BENCH_Q, "hss"):
                H_hss, _, _, pts2, _ = pipelines.get(name, "hss")
                m2 = scaled_machine(HASWELL, len(pts2))
                t_m2 = MatRoxSystem(H_hss).simulate(
                    H_hss.factors, BENCH_Q, m2, p=PAPER_P).time_s
                t_s = systems["strumpack"].simulate(
                    H_hss.factors, BENCH_Q, m2, p=PAPER_P).time_s
                per_system["strumpack"].append((name, t_s / t_m2))

            # SMASH: scientific (d<=3) sets, Q=1, 1/r kernel.
            if systems["smash"].supports(spec.paper_n, spec.dim, 1,
                                         "h2-geometric"):
                pts3 = load_dataset(name, n=1000, seed=0)
                insp = Inspector(structure="h2-geometric", tau=0.65,
                                 bacc=1e-5, leaf_size=32, p=PAPER_P, seed=0)
                H3 = insp.run(pts3, get_kernel("inverse_distance"))
                m3 = scaled_machine(HASWELL, len(pts3))
                t_m3 = MatRoxSystem(H3).simulate(H3.factors, 1, m3,
                                                 p=PAPER_P).time_s
                t_sm = systems["smash"].simulate(H3.factors, 1, m3,
                                                 p=PAPER_P).time_s
                per_system["smash"].append((name, t_sm / t_m3))
        return per_system

    per_system = benchmark.pedantic(run, rounds=1, iterations=1)

    paper = {"gofmm": 2.98, "smash": 1.60, "strumpack": 5.98, "gemm": 18.0}
    rows = []
    means = {}
    for sysname, pairs in per_system.items():
        vals = [s for _n, s in pairs]
        means[sysname] = float(np.mean(vals))
        rows.append([sysname, len(pairs), fmt(means[sysname]),
                     fmt(min(vals)), fmt(max(vals)), paper[sysname]])
    print_table(
        "Headline: MatRox executor speedup vs each system "
        f"(Q={BENCH_Q}, simulated Haswell)",
        ["system", "#datasets", "mean", "min", "max", "paper mean"],
        rows,
    )
    save_results("headline", per_system)

    # The dense-GEMM comparison is scale-sensitive: the HMatrix advantage is
    # O(N) (compressed flops ~ N r^2 vs dense ~ N^2 q), so the bench-scale
    # ratio extrapolates linearly in N to the paper's problem sizes.
    gemm_extrap = []
    for name, s in per_system["gemm"]:
        scale = DATASETS[name].paper_n / bench_n_of(name)
        gemm_extrap.append(s * scale)
    mean_extrap = float(np.mean(gemm_extrap))
    print(f"  gemm speedup extrapolated to paper N: mean "
          f"{mean_extrap:.1f}x (paper: ~18x at Q=2K)")

    # Orderings and win/loss must match the paper.
    assert means["gofmm"] > 1.5
    assert means["strumpack"] > means["gofmm"] * 0.8
    assert means["smash"] > 1.0
    assert mean_extrap > 5.0  # dense loses badly at Q=2K and paper scale
    # At bench scale the scientific (low-dim) sets must already beat GEMM.
    sci = [s for n, s in per_system["gemm"]
           if DATASETS[n].kind == "scientific"]
    assert min(sci) > 1.5
