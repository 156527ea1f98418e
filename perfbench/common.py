"""Shared helpers for the benchmark's processes (no ``repro`` import here).

Every process of the benchmark (the orchestrator ``run.py``, the one-rep
``worker.py``, the server launcher) imports this module, so it must stay
importable where the package under test is missing: ``run.py`` has to be
able to report that and exit non-zero.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch roots and run records live here, inside the checkout.
STATE = ROOT / ".perfbench"


def nproc() -> int:
    """CPUs this process may run on (the affinity mask, not the machine)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's ``src`` and
    the benchmark's own directory first on ``PYTHONPATH``."""
    env = dict(os.environ)
    parts = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def median(values) -> float:
    vals = [float(v) for v in values]
    return statistics.median(vals) if vals else math.nan


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return math.nan
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def now() -> float:
    """Monotonic clock shared by every process on the host (CLOCK_MONOTONIC
    on Linux), so a child's timestamps compare with its parent's."""
    return time.perf_counter()


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True, default=float))
    os.replace(tmp, path)
