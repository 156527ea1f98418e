"""Unified stats collection and ``/metrics``-style text export.

Counters already exist at every layer — :class:`~repro.api.store.StoreStats`,
:class:`~repro.api.session.SessionStats`, the
:class:`~repro.api.service.KernelService` dispatcher, and the autotuner
— but each spoke its own dialect. This module flattens them into one
nested dict (:func:`collect_stats`) and renders that as
Prometheus-style ``name value`` lines (:func:`metrics_text`), which is
what ``repro stats`` prints and what a future wire protocol would serve
at ``/metrics``.

:func:`store_inventory` is the *offline* view: it reads a store
directory's manifests raw (tolerating version skew and rot — an
inventory is a report, not a serve path), so ``repro stats --store``
works on any store, including ones this build cannot load.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["collect_stats", "metrics_text", "store_inventory"]


def collect_stats(*, session=None, service=None, executor=None,
                  store=None) -> dict:
    """One nested dict of every counter the given components expose.

    Components imply their dependencies: a service implies its session,
    a session implies its store and executor. Explicit arguments win.
    """
    from repro.analysis.counters import analysis_counters
    from repro.observability.manifest import manifest_write_failures

    if service is not None and session is None:
        session = service.session
    if session is not None:
        store = store if store is not None else session.store
        executor = executor if executor is not None else session._executor
    out: dict = {"manifest_write_failures": manifest_write_failures(),
                 "analysis": analysis_counters()}
    if store is not None:
        out["store"] = store.cache_info()
    if session is not None:
        out["session"] = session.stats.as_dict()
    if executor is not None:
        out["autotune"] = executor.autotune_stats()
    if service is not None:
        out["service"] = service.stats(include_autotune=False)
    return out


def metrics_text(stats: dict, prefix: str = "repro") -> str:
    """Flatten nested counters into sorted ``<prefix>_<path> <value>``
    lines (numbers only; booleans as 0/1 — the Prometheus exposition
    shape, minus type metadata)."""
    lines: list[str] = []

    def walk(obj, path: str) -> None:
        if isinstance(obj, bool):
            lines.append(f"{path} {int(obj)}")
        elif isinstance(obj, (int, float)):
            value = f"{obj:.6g}" if isinstance(obj, float) else str(obj)
            lines.append(f"{path} {value}")
        elif isinstance(obj, dict):
            for key in obj:
                walk(obj[key], f"{path}_{_sanitize(key)}")

    walk(stats, prefix)
    return "\n".join(sorted(lines)) + "\n" if lines else ""


def _sanitize(key) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in str(key))


def store_inventory(directory) -> dict:
    """Offline per-tier inventory of a PlanStore directory.

    Reads manifests raw — unreadable or version-skewed entries are
    *counted*, not raised, because an inventory must describe exactly
    the stores ``repro gc`` exists to clean up.
    """
    from repro.api.store import STORE_VERSION

    directory = Path(directory)
    tiers: dict[str, dict] = {}
    unreadable = 0
    version_skew = 0
    total_bytes = 0
    entries = 0
    for manifest_path in sorted(directory.glob("*.json")):
        if ".tmp." in manifest_path.name:
            continue
        size = manifest_path.stat().st_size
        payload = manifest_path.with_suffix(".npz")
        if payload.exists():
            size += payload.stat().st_size
        total_bytes += size
        try:
            manifest = json.loads(manifest_path.read_text())
            tier = manifest["tier"]
            version = manifest["store_version"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            unreadable += 1
            continue
        entries += 1
        if version != STORE_VERSION:
            version_skew += 1
        bucket = tiers.setdefault(str(tier), {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += size
    run_manifests = len(list((directory / "manifests").glob("run-*.json")))
    return {
        "directory": str(directory),
        "entries": entries,
        "bytes": total_bytes,
        "tiers": tiers,
        "unreadable": unreadable,
        "version_skew": version_skew,
        "run_manifests": run_manifests,
    }
