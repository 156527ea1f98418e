"""Inspector (compression) cost model for the simulated-machine figures.

The comparative overall-time figures (Fig. 4, Fig. 10) stack compression,
structure-analysis, code-generation, and executor time. Our compression runs
in pure Python, so its wall time is not commensurable with the simulated
executor seconds; instead we count the *flops the compression performs*
(kernel block assembly, pivoted-QR IDs, k-NN search) and convert them to
seconds on the same machine model. Structure analysis and code generation
are modelled as the paper reports them: on average 8.1% of inspection time,
split between the two.

The same model serves GOFMM (same ID-based compression) and STRUMPACK
(randomized-sampling compression, modelled as a constant factor more work —
Fig. 4 shows it consistently slower).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.compressor import CompressionResult
from repro.runtime.machine import MachineModel

def _kernel_entry_flops(d: float) -> float:
    # Cost (flops) of evaluating one kernel entry for d-dimensional points:
    # distance accumulation (2d) plus the transcendental (~20).
    return 2.0 * d + 20.0

# Paper: "structure analysis and code generation in MatRox is on average 8.1
# percent of inspection time"; we split it 60/40 between the two stages.
STRUCTURE_ANALYSIS_FRACTION = 0.081 * 0.6
CODE_GENERATION_FRACTION = 0.081 * 0.4


@dataclass
class InspectorCosts:
    """Flop counts of the compression modules (machine-independent)."""

    sampling_flops: float
    lowrank_flops: float
    kernel_flops: float
    tree_flops: float

    @property
    def compression_flops(self) -> float:
        return (self.sampling_flops + self.lowrank_flops
                + self.kernel_flops + self.tree_flops)


def inspector_cost_model(result: CompressionResult) -> InspectorCosts:
    """Count the work modular compression performed for ``result``."""
    tree = result.tree
    factors = result.factors
    n, d = tree.num_points, tree.dim
    entry = _kernel_entry_flops(d)

    # Tree construction: ~log2(N/leaf) passes of projection + partition.
    depth = max(tree.height, 1)
    tree_flops = 2.0 * n * d * depth

    # Sampling: k-NN cost depends on the method the module actually used —
    # exact k-NN is O(N^2 d) (why sampling dominates compression for
    # high-dimensional sets like mnist, 89.2% in the paper); rp-trees are
    # O(trees * N * leaf * d).
    k = result.plan.k
    if result.plan.method == "exact":
        knn_flops = float(n) * n * (2.0 * d + 4.0)
    else:
        tree_count, rp_leaf = 4.0, 128.0
        knn_flops = tree_count * n * rp_leaf * (2.0 * d + 4.0)
    sampling_flops = knn_flops + sum(
        len(s) * d for s in result.plan.samples.values()
    )

    # Low-rank approximation: per node, assemble the sample block
    # (s x m kernel entries) and run pivoted QR (2 s m^2).
    lowrank = 0.0
    kernel_cost = 0.0
    for v in range(tree.num_nodes):
        r = factors.srank(v)
        if r == 0:
            continue
        if tree.is_leaf(v):
            m = tree.node_size(v)
        else:
            lc, rc = int(tree.lchild[v]), int(tree.rchild[v])
            m = factors.srank(lc) + factors.srank(rc)
        s = max(2 * m, 8)
        kernel_cost += s * m * entry
        lowrank += 2.0 * s * m * m
    # Coupling and near block assembly are kernel evaluations too.
    kernel_cost += sum(b.size * entry for b in factors.coupling.values())
    kernel_cost += sum(b.size * entry for b in factors.near_blocks.values())

    return InspectorCosts(
        sampling_flops=sampling_flops,
        lowrank_flops=lowrank,
        kernel_flops=kernel_cost,
        tree_flops=tree_flops,
    )


def simulate_inspector_seconds(
    costs: InspectorCosts,
    machine: MachineModel,
    p: int | None = None,
    overhead: float = 1.0,
) -> dict[str, float]:
    """Convert inspector flop counts to simulated seconds.

    Compression parallelises well in all tools (independent per-node IDs),
    so it runs on ``p`` cores at small-GEMM efficiency. ``overhead``
    scales the compression (STRUMPACK's randomized sampling: ~2.5x).
    Returns a stage -> seconds dict including the modelled structure
    analysis and code generation stages.
    """
    p = machine.num_cores if p is None else p
    compress_s = overhead * machine.flop_seconds(
        costs.compression_flops, cores=p
    )
    return {
        "compression": compress_s,
        "structure_analysis": compress_s * STRUCTURE_ANALYSIS_FRACTION,
        "code_generation": compress_s * CODE_GENERATION_FRACTION,
    }


# --------------------------------------------------------------------------
# Executor policy priors (the repro.tuning seed model).
#
# The autotuner's candidate grid is seeded analytically before anything is
# measured: the same machine-model arithmetic the simulator uses converts
# an HMatrix's evaluation flop count into a predicted wall time per
# execution policy. Two uses (see repro.tuning.autotune):
#
# * problems below EXECUTOR_TRIVIAL_FLOPS skip measurement entirely — at
#   that scale trial noise exceeds any policy delta, so the analytically
#   best candidate is recorded with source="prior";
# * larger problems measure the candidates in prior order, so the likely
#   winner is timed first and mispredictions only cost extra trials,
#   never a wrong *correctness* outcome (every candidate computes the
#   same product).
# --------------------------------------------------------------------------

#: Below this many evaluation flops per right-hand-side pass, measured
#: trials are noise: serve the analytic prior directly (zero trials).
EXECUTOR_TRIVIAL_FLOPS = 2.0e7


def _generic_host_machine(cpus: int) -> MachineModel:
    """A neutral per-host machine model for the policy prior.

    Only *relative* policy ordering matters here, so a conservative
    generic core (2.5 GHz, 8 flops/cycle DP) stands in for the real
    host; the measured trials, not this model, produce the recorded
    seconds for any problem above the trivial floor.
    """
    return MachineModel(
        name=f"generic-{cpus}c",
        num_cores=max(1, int(cpus)),
        freq_ghz=2.5,
        flops_per_cycle=8.0,
        dram_bandwidth_gbs=12.0 * max(1, int(cpus)) ** 0.5,
        single_core_bandwidth_gbs=10.0,
    )


def predict_policy_seconds(knobs: dict, flops: float, cpus: int,
                           machine: MachineModel | None = None) -> float:
    """Modelled seconds for one ``Y = H @ W`` pass under a policy.

    ``knobs`` is the :func:`repro.tuning.profile.policy_knobs` dict form
    (order/num_threads/q_chunk); ``flops`` the HMatrix's evaluation flop
    count for the pass's right-hand-side width.
    """
    machine = machine if machine is not None else _generic_host_machine(cpus)
    order = knobs.get("order", "batched")
    if order in ("batched", "tree"):
        # One stacked GEMM per shape bucket: large-GEMM efficiency.
        return machine.flop_seconds(flops, cores=1,
                                    efficiency=machine.blas_efficiency)

    # Per-block code: skinny per-block GEMMs at small-GEMM efficiency,
    # optionally over a thread pool (spawn overhead per task wave).
    threads = knobs.get("num_threads") or 1
    threads = max(1, min(int(threads), cpus))
    compute = machine.flop_seconds(
        flops, cores=threads, efficiency=machine.small_gemm_efficiency)
    spawn = threads * machine.task_spawn_us * 1e-6 if threads > 1 else 0.0
    return compute + spawn


def executor_policy_priors(candidates, flops: float, cpus: int,
                           machine: MachineModel | None = None) -> list:
    """Rank candidate policy-knob dicts by modelled seconds (best first).

    Returns ``[(knobs, predicted_seconds), ...]`` sorted ascending; ties
    break toward the earlier candidate (the tuner lists its safest
    default first).
    """
    machine = machine if machine is not None else _generic_host_machine(cpus)
    scored = [
        (knobs, predict_policy_seconds(knobs, flops, cpus, machine))
        for knobs in candidates
    ]
    order = sorted(range(len(scored)), key=lambda i: (scored[i][1], i))
    return [scored[i] for i in order]
