"""Figure 7: strong scaling on Haswell (1-12 cores) and KNL (1-68 cores).

The paper plots speedup-over-serial for covtype and unit: MatRox scales
near-linearly on both machines while the libraries plateau — GOFMM's
performance *drops* from 34 to 68 KNL cores. The coarsening partition
count p is re-derived per simulated core count (as the real inspector
would be configured per machine).
"""

import pytest

from repro.baselines import MatRoxSystem
from repro.kernels import get_kernel
from repro.runtime import HASWELL, KNL

from conftest import (
    BENCH_Q,
    fmt,
    pipelines,
    print_table,
    save_results,
    scaled_machine,
)

HASWELL_CORES = (1, 2, 4, 6, 8, 10, 12)
KNL_CORES = (1, 2, 4, 8, 17, 34, 68)
FIG7_DATASETS = ("covtype", "unit")


def scaling_curves(pipelines, systems, name: str, machine, cores):
    # HSS structure like the paper's scalability study; p sized for the
    # largest core count; fine leaves so the sub-tree supply covers 68 cores.
    H, _p1, _insp, points, _kern = pipelines.get(
        name, "hss", p=max(cores), leaf=16, bacc=1e-4)
    m = scaled_machine(machine, len(points))
    mx = MatRoxSystem(H)
    go = systems["gofmm"]
    sp = systems["strumpack"]
    curves = {"matrox": [], "gofmm": [], "strumpack": []}
    for p in cores:
        curves["matrox"].append(mx.simulate(H.factors, BENCH_Q, m, p=p).time_s)
        curves["gofmm"].append(go.simulate(H.factors, BENCH_Q, m, p=p).time_s)
        curves["strumpack"].append(
            sp.simulate(H.factors, BENCH_Q, m, p=p).time_s)
    return {
        sys_name: [ts[0] / t for t in ts] for sys_name, ts in curves.items()
    }


@pytest.mark.parametrize("machine,cores,mname", [
    (HASWELL, HASWELL_CORES, "haswell"),
    (KNL, KNL_CORES, "knl"),
])
def test_fig7_scalability(machine, cores, mname, pipelines, systems, benchmark):
    def run():
        return {
            name: scaling_curves(pipelines, systems, name, machine, cores)
            for name in FIG7_DATASETS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    from repro.reporting import line_chart

    for name, speedups in results.items():
        rows = [
            [sys_name] + [fmt(s, 1) for s in ss]
            for sys_name, ss in speedups.items()
        ]
        print_table(
            f"Figure 7: {name} ({mname}) — speedup over serial",
            ["system"] + [f"p={p}" for p in cores],
            rows,
        )
        print(line_chart(
            [float(p) for p in cores], speedups,
            title=f"Figure 7: {name} ({mname}) speedup vs cores",
        ))
    save_results(f"fig7_{mname}", results)

    for name, speedups in results.items():
        mx, go = speedups["matrox"], speedups["gofmm"]
        # MatRox scales further than GOFMM at max cores.
        assert mx[-1] > go[-1], f"{name}/{mname}"
        # MatRox speedup is monotone non-decreasing (within noise).
        for a, b in zip(mx, mx[1:], strict=False):
            assert b >= a * 0.9, f"{name}/{mname}: matrox regressed"
        if mname == "knl":
            # The paper's headline anomaly: GOFMM declines from 34 to 68.
            i34, i68 = cores.index(34), cores.index(68)
            assert go[i68] <= go[i34] * 1.1, (
                f"{name}: GOFMM should flatten/drop from 34 to 68 cores"
            )
            # MatRox keeps scaling well past 34 cores.
            assert mx[i68] > mx[i34]


def test_fig7_smash_comparison(pipelines, systems, benchmark):
    """SMASH runs only matvec on low-dim points; MatRox with SMASH settings
    (1/r kernel, tau=0.65) still wins — the paper's 'MatRox-Skernel'."""
    from repro.core.inspector import Inspector
    from repro.datasets import load_dataset

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    points = load_dataset("unit", n=1200, seed=0)
    kernel = get_kernel("inverse_distance")
    insp = Inspector(structure="h2-geometric", tau=0.65, bacc=1e-5,
                     leaf_size=32, p=12, seed=0)
    H = insp.run(points, kernel)
    m = scaled_machine(HASWELL, len(points))
    t_m = MatRoxSystem(H).simulate(H.factors, 1, m, p=12).time_s
    t_s = systems["smash"].simulate(H.factors, 1, m, p=12).time_s
    print(f"\nSMASH settings, Q=1: matrox {t_m*1e6:.0f}us vs "
          f"smash {t_s*1e6:.0f}us ({t_s/t_m:.2f}x, paper eval avg: 1.6x)")
    assert t_m < t_s
