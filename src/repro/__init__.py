"""repro — a reproduction of MatRox (Liu et al., PPoPP 2020).

MatRox is an inspector-executor framework for H2 hierarchical-matrix
evaluation: modular compression, structure analysis (blocking + coarsening),
the CDS storage format, and specialized code generation for data-local,
load-balanced HMatrix-matrix multiplication.

Quickstart
----------
>>> import numpy as np
>>> from repro import inspector, matmul
>>> points = np.random.default_rng(0).random((2000, 2))
>>> H = inspector(points, kernel="gaussian", structure="h2-geometric")
>>> W = np.random.default_rng(1).random((2000, 16))
>>> Y = matmul(H, W)          # approximates K @ W

The typed API layer (``repro.api``) makes inspect-once/execute-many
first-class: a :class:`Session` caches inspection plans by content
fingerprint and hands out composable :class:`KernelOperator` facades
(``K + lam * I`` is an object solvers consume directly).

>>> from repro import PlanConfig, Session
>>> with Session(plan=PlanConfig(leaf_size=64)) as session:
...     K = session.operator(points, kernel="gaussian")
...     Y2 = K @ W                     # same product, cached plan
>>> bool(np.allclose(Y, Y2, atol=1e-12))
True

See DESIGN.md for the system inventory (section 6 covers the API layer)
and EXPERIMENTS.md for the paper-figure reproductions.
"""

from repro.api import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    IdentityOperator,
    KernelOperator,
    KernelService,
    LinearOperator,
    PlanConfig,
    PlanStore,
    PlanStoreError,
    Session,
    aslinearoperator,
)
from repro.compression.compressor import CompressionResult, compress
from repro.core.accuracy import overall_accuracy, relative_error
from repro.core.executor import Executor, matmul, matmul_many
from repro.core.hmatrix import HMatrix
from repro.core.inspector import (
    InspectionP1,
    Inspector,
    inspector,
    inspector_p1,
    inspector_p2,
)
from repro.core.io import (
    load_hmatrix,
    load_inspection_p1,
    load_operator,
    save_hmatrix,
    save_inspection_p1,
)
from repro.datasets.registry import dataset_names, load_dataset, table1_rows
from repro.kernels.base import Kernel, get_kernel
from repro.observability import (
    FaultPlan,
    RunManifest,
    build_run_manifest,
    collect_stats,
    inject_faults,
    metrics_text,
)
from repro.net import KernelClient, KernelServer
from repro.tuning import Autotuner, TuningProfile, tune
from repro.solvers import (
    KernelRidgeRegression,
    conjugate_gradient,
    estimate_trace,
    power_iteration,
)

__version__ = "1.7.0"

__all__ = [
    "PlanConfig",
    "ExecutionPolicy",
    "DEFAULT_POLICY",
    "Session",
    "PlanStore",
    "PlanStoreError",
    "KernelService",
    "KernelServer",
    "KernelClient",
    "KernelOperator",
    "LinearOperator",
    "IdentityOperator",
    "aslinearoperator",
    "inspector",
    "inspector_p1",
    "inspector_p2",
    "Inspector",
    "InspectionP1",
    "HMatrix",
    "Executor",
    "matmul",
    "matmul_many",
    "RunManifest",
    "build_run_manifest",
    "collect_stats",
    "metrics_text",
    "FaultPlan",
    "inject_faults",
    "Autotuner",
    "TuningProfile",
    "tune",
    "compress",
    "CompressionResult",
    "overall_accuracy",
    "relative_error",
    "Kernel",
    "get_kernel",
    "load_dataset",
    "dataset_names",
    "table1_rows",
    "save_hmatrix",
    "load_hmatrix",
    "load_operator",
    "save_inspection_p1",
    "load_inspection_p1",
    "KernelRidgeRegression",
    "conjugate_gradient",
    "power_iteration",
    "estimate_trace",
    "__version__",
]
