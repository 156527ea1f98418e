"""Core MatRox framework: HMatrix, inspector/executor, reference evaluation."""

from repro.core.accuracy import overall_accuracy, relative_error
from repro.core.evaluation import evaluate_reference
from repro.core.hmatrix import HMatrix
from repro.core.inspector import (
    InspectionP1,
    Inspector,
    inspector,
    inspector_p1,
    inspector_p2,
)
from repro.core.executor import Executor, matmul, matmul_many

__all__ = [
    "evaluate_reference",
    "overall_accuracy",
    "relative_error",
    "HMatrix",
    "Inspector",
    "InspectionP1",
    "inspector",
    "inspector_p1",
    "inspector_p2",
    "Executor",
    "matmul",
    "matmul_many",
]
