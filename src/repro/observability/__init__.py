"""Production observability + chaos hardening (DESIGN.md section 10).

Three concerns, one package:

* **RunManifest** (:mod:`repro.observability.manifest`) — a
  deterministic, schema-validated JSON record of what a run did
  (counters, autotune decisions with margins, version pins, host
  signature), written best-effort next to the store at
  Session/KernelService close;
* **stats export** (:mod:`repro.observability.stats`) — one nested
  counter dict across PlanStore/Session/KernelService/Executor/tuner,
  rendered as ``/metrics``-style text (``repro stats``);
* **fault injection** (:mod:`repro.observability.faults`) — the chaos
  layer: :class:`FaultPlan` names the exact interleaving point where
  an artifact rots, so the failure-model tests are enumerated
  schedules, not sleeps.
"""

from repro.observability.faults import (
    FaultPlan,
    active_fault_plan,
    clear_fault_plan,
    inject_faults,
    install_fault_plan,
)
from repro.observability.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    build_run_manifest,
    canonical_json,
    load_manifest_schema,
    manifest_write_failures,
    validate_run_manifest,
    write_run_manifest,
)
from repro.observability.schema import SchemaError, validate_json
from repro.observability.stats import (
    collect_stats,
    metrics_text,
    store_inventory,
)

__all__ = [
    "MANIFEST_VERSION",
    "RunManifest",
    "build_run_manifest",
    "canonical_json",
    "load_manifest_schema",
    "manifest_write_failures",
    "validate_run_manifest",
    "write_run_manifest",
    "SchemaError",
    "validate_json",
    "collect_stats",
    "metrics_text",
    "store_inventory",
    "FaultPlan",
    "active_fault_plan",
    "clear_fault_plan",
    "inject_faults",
    "install_fault_plan",
]
