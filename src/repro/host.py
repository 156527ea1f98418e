"""Host identity: the axes a host-specific artifact depends on.

Two PlanStore tiers key artifacts by host — tuning profiles (a measured
policy winner is only transferable between like hosts) and compiled
executors (index tables and workspace plans are laid out for one
BLAS/CPU configuration). Both MUST use the same signature: if the tuner
and the compiled tier disagreed about what "this host" means, a
signature change (new BLAS, different affinity mask) would invalidate
one cache but silently replay the other. This module is the single
definition.
"""

from __future__ import annotations

import contextlib
import platform

import numpy as np

from repro.api.policy import effective_cpu_count

__all__ = ["host_key", "host_signature"]


def _blas_vendor() -> str:
    """Best-effort BLAS vendor name (part of the host signature)."""
    # show_config has no stable API; any failure means "unknown".
    with contextlib.suppress(Exception):  # numpy >= 1.26 structured config
        cfg = np.show_config(mode="dicts")
        name = (cfg.get("Build Dependencies", {})
                .get("blas", {}).get("name", ""))
        if name:
            return str(name).lower()
    config = getattr(np, "__config__", None)
    for vendor in ("mkl", "openblas", "blis", "accelerate", "atlas"):
        if config is not None and getattr(config, f"{vendor}_info", None):
            return vendor
    return "unknown"


def host_signature() -> dict:
    """The host axes a measured or compiled artifact depends on.

    ``cpus`` is the *effective* count (:func:`effective_cpu_count` — the
    scheduler-affinity mask, not the machine), so an artifact built
    inside a 2-CPU cgroup is never replayed as if 64 cores were
    available.
    """
    return {
        "cpus": effective_cpu_count(),
        "blas": _blas_vendor(),
        "machine": platform.machine() or "unknown",
    }


def host_key(host: dict) -> str:
    """Canonical string form of a host signature (stable across runs)."""
    return ";".join(f"{k}={host[k]}" for k in sorted(host))
