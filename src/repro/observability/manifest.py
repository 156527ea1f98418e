"""RunManifest: a deterministic JSON record of what a run actually did.

The artifact-manifest pattern: at Session/KernelService close, write one
JSON document next to the store recording per-run counters (store
hits/misses, inspection builds, per-batch latency stats), every
autotune decision with its margin, the version pins of the code that
produced the artifacts, and the host signature. The write is
**best-effort**: a failed manifest write never fails the run, it only
increments :func:`manifest_write_failures`.

Determinism contract (property-tested): serialization is canonical —
keys sorted at every level, fixed separators, trailing newline — so two
runs with identical inputs produce **byte-identical** JSON, and the
``run_id`` is the content address (SHA-256 prefix) of the body. Nothing
in this module samples a clock: ``created`` is an explicit input, so
the caller decides whether the manifest is timestamped or reproducible.

The document schema is checked in as ``run_manifest.schema.json`` and
enforced by :func:`validate_run_manifest` (CI schema-validates the
manifest emitted by the serve smoke run).
"""

from __future__ import annotations

import hashlib
import json
import platform
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.observability.schema import validate_json

__all__ = [
    "MANIFEST_VERSION",
    "RunManifest",
    "build_run_manifest",
    "canonical_json",
    "load_manifest_schema",
    "manifest_write_failures",
    "validate_run_manifest",
    "write_run_manifest",
]

#: Schema version of the manifest document (bump on incompatible change).
MANIFEST_VERSION = 1

_SCHEMA_PATH = Path(__file__).with_name("run_manifest.schema.json")
_schema_cache: dict | None = None

_failures_lock = threading.Lock()
_write_failures = 0


def canonical_json(obj) -> str:
    """The one serialization every manifest uses: sorted keys, stable
    separators, ASCII, trailing newline — byte-identical for equal
    inputs regardless of dict insertion order."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": "), ensure_ascii=True) + "\n"


def load_manifest_schema() -> dict:
    """The checked-in run-manifest JSON schema (cached)."""
    global _schema_cache
    if _schema_cache is None:
        _schema_cache = json.loads(_SCHEMA_PATH.read_text())
    return _schema_cache


def validate_run_manifest(doc: dict) -> list[str]:
    """Schema-conformance errors for a manifest document (empty = valid)."""
    return validate_json(doc, load_manifest_schema())


def manifest_write_failures() -> int:
    """How many best-effort manifest writes have failed in this process."""
    with _failures_lock:
        return _write_failures


def _count_write_failure() -> None:
    global _write_failures
    with _failures_lock:
        _write_failures += 1


def _version_pins() -> dict:
    import repro
    from repro.api.store import STORE_VERSION
    from repro.core.io import _FORMAT_VERSION
    from repro.tuning.profile import PROFILE_FORMAT_VERSION

    return {
        "repro": repro.__version__,
        "store": int(STORE_VERSION),
        "io": int(_FORMAT_VERSION),
        "profile": int(PROFILE_FORMAT_VERSION),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@dataclass(frozen=True)
class RunManifest:
    """An immutable manifest document (see :func:`build_run_manifest`)."""

    doc: dict

    @property
    def run_id(self) -> str:
        return self.doc["run_id"]

    def to_json(self) -> str:
        return canonical_json(self.doc)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("run manifest must be a JSON object")
        return cls(doc)

    def validate(self) -> None:
        """Raise ``ValueError`` unless the document conforms to the schema."""
        problems = validate_run_manifest(self.doc)
        if problems:
            raise ValueError(
                "run manifest fails schema validation:\n  "
                + "\n  ".join(problems))

    @classmethod
    def build(cls, *, stats: dict, decisions=(), versions: dict | None = None,
              host: dict | None = None, extra: dict | None = None,
              created: float | None = None) -> "RunManifest":
        """Assemble + content-address a manifest from already-collected
        parts (``run_id`` is the SHA-256 prefix of the canonical body,
        so equal inputs name equal manifests)."""
        from repro.host import host_signature

        body = {
            "manifest_version": MANIFEST_VERSION,
            "created": created,
            "versions": versions if versions is not None else _version_pins(),
            "host": host if host is not None else host_signature(),
            "stats": dict(stats),
            "decisions": list(decisions),
        }
        if extra:
            body["extra"] = dict(extra)
        digest = hashlib.sha256(canonical_json(body).encode()).hexdigest()
        return cls({**body, "run_id": digest[:16]})


def _autotune_decisions(tuner) -> list[dict]:
    """Every resolved profile as a JSON-able decision record, in a
    deterministic order (fingerprint, then width bucket)."""
    if tuner is None:
        return []
    decisions = [
        {
            "hmatrix_fp": prof.hmatrix_fp,
            "width_bucket": int(prof.width_bucket),
            "policy": dict(prof.policy),
            "source": prof.source,
            "margin": float(prof.margin),
            "trials": int(prof.trials),
        }
        for prof in tuner.profiles()
    ]
    decisions.sort(key=lambda d: (d["hmatrix_fp"], d["width_bucket"],
                                  sorted(d["policy"].items())))
    return decisions


def build_run_manifest(*, session=None, service=None,
                       extra: dict | None = None,
                       created: float | None = None) -> RunManifest:
    """Collect a manifest from a live Session and/or KernelService.

    Pulls the counters already kept by every layer — the session's
    :class:`~repro.api.store.StoreStats` and
    :class:`~repro.api.session.SessionStats`, the autotuner's decisions
    with margins, and (when a service is given) the dispatcher's
    latency/batching stats.
    """
    from repro.analysis.counters import analysis_counters

    if service is not None and session is None:
        session = service.session
    # What the run *proved*, not just what it did: write-set and sync
    # certification outcomes (deterministic counters, so the manifest's
    # byte-identity contract holds).
    stats: dict = {"manifest_write_failures": manifest_write_failures(),
                   "analysis": analysis_counters()}
    decisions: list = []
    if session is not None:
        stats["store"] = session.store.cache_info()
        stats["session"] = session.stats.as_dict()
        stats["autotune"] = session._executor.autotune_stats()
        decisions = _autotune_decisions(session._executor._autotuner)
    if service is not None:
        stats["service"] = service.stats(include_autotune=False)
    return RunManifest.build(stats=stats, decisions=decisions, extra=extra,
                             created=created)


def write_run_manifest(manifest: RunManifest, target) -> Path | None:
    """Best-effort write: the manifest lands at ``target`` (a file path,
    or a directory to receive ``run-<run_id>.json``) atomically via
    temp-file + rename. Returns the written path, or ``None`` on any
    failure — a manifest must never fail the run it describes; failures
    only increment :func:`manifest_write_failures`."""
    try:
        target = Path(target)
        if target.is_dir() or target.suffix != ".json":
            target = target / f"run-{manifest.run_id}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(manifest.to_json())
        tmp.replace(target)
        return target
    except OSError:
        _count_write_failure()
        return None
