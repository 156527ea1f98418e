"""PlanStore: a durable, content-addressed artifact store for plans.

The paper's whole premise is inspect-once/execute-many; before this module
the "once" only lasted one process lifetime (the Session's in-memory LRUs)
while disk persistence lived in a disconnected path (:mod:`repro.core.io`)
with no cache semantics or integrity checking. :class:`PlanStore` subsumes
both: it is the single artifact cache behind a
:class:`~repro.api.session.Session`, with a **tiered memory → disk get
path** so a fresh process warm-starts from disk and never re-inspects.

Design (DESIGN.md section 8):

* **Keys are content tuples** — the same ``(points_fingerprint,
  PlanConfig fingerprint, kernel identity)`` tuples the Session already
  uses; the store hashes their ``repr`` with SHA-256 into a digest that
  names the on-disk artifact (content addressing, no coordination needed).
* **Two tiers per entry kind**: phase-1 inspections (``p1``), finished
  HMatrices (``hmatrix``), and autotuner profiles (``profile``, see
  :mod:`repro.tuning`), each fronted by its own in-memory LRU.
* **Artifacts are ``<digest>.npz`` payloads** in the existing
  :mod:`repro.core.io` formats **plus a ``<digest>.json`` manifest**
  recording the tier, the key, and the payload's SHA-256. Loads verify the
  digest and *fail closed* with :class:`PlanStoreError` on any mismatch —
  a tampered or torn artifact can never be served.
* **Writes are atomic**: payload to a temp file then ``os.replace``, then
  the manifest the same way. The manifest is written last, so a manifest's
  existence implies a complete payload; eviction deletes the manifest
  first, preserving the invariant in the other direction.
* **Capacity policy**: ``max_bytes`` bounds the on-disk footprint;
  least-recently-*used* artifacts (manifest mtime, touched on every get)
  are evicted first. The newest artifact is never evicted.

All public methods are thread-safe (one coarse lock: artifacts are
few-per-second, megabyte-scale objects, not a hot path), so one PlanStore
may back many Sessions and a :class:`~repro.api.service.KernelService`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable
from typing import Any, NoReturn

from repro.core.io import (
    PlanStoreError,
    load_hmatrix,
    load_inspection_p1,
    load_tuning_profile,
    save_hmatrix,
    save_inspection_p1,
    save_tuning_profile,
)
from repro.observability.faults import active_fault_plan
from repro.observability.sync import make_rlock

__all__ = [
    "ArtifactTier",
    "PlanStore",
    "PlanStoreError",
    "StoreStats",
    "register_tier",
    "registered_tiers",
]

#: Version of the store layout (manifest schema + file naming).
STORE_VERSION = 1

#: Read size of the streamed payload hash on put.
_HASH_CHUNK = 1 << 20


def _file_digest(path: Path) -> tuple[str, int]:
    """SHA-256 hex digest and byte size of ``path``, read in chunks."""
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


@dataclass(frozen=True)
class ArtifactTier:
    """One artifact kind the store knows how to persist.

    A tier declares its codec (``save``/``load`` in the
    :mod:`repro.core.io` calling convention: save to a path/file, load
    from a path/file, load raising :class:`PlanStoreError` on malformed
    bytes), a format ``version`` (informational; codecs version their
    own payloads), the default capacity of its in-memory LRU front, and
    an optional ``prepare`` hook applied to values on ``put`` (e.g. the
    profile tier coerces :class:`~repro.tuning.profile.TuningProfile`
    objects to their dict wire form).

    New tiers plug in via :func:`register_tier` — no edits to this
    module or :mod:`repro.core.io` required; the compiled-executor tier
    (:mod:`repro.codegen.compiled`) registers itself this way.
    """

    name: str
    save: Callable[..., Any]
    load: Callable[..., Any]
    version: int = 1
    default_memory_entries: int = 16
    prepare: Callable[..., Any] | None = None


def _prepare_profile(profile: Any) -> Any:
    return profile.to_dict() if hasattr(profile, "to_dict") else profile


#: tier name -> ArtifactTier. The three built-ins register here; other
#: modules add their own via register_tier().
_TIER_REGISTRY: dict[str, ArtifactTier] = {}

#: Tiers whose owning module registers them on import: looked up lazily
#: so a store can warm()/get() such artifacts without the caller having
#: imported the owner first.
_TIER_AUTOLOAD = {"compiled": "repro.codegen.compiled"}


def register_tier(tier: ArtifactTier) -> ArtifactTier:
    """Register (or replace) an artifact tier; returns it for chaining."""
    if not tier.name or not tier.name.isidentifier():
        raise ValueError(f"tier name must be an identifier, got {tier.name!r}")
    _TIER_REGISTRY[tier.name] = tier
    return tier


def registered_tiers() -> tuple[str, ...]:
    """Names of every registered tier (autoloadable ones included)."""
    for name in _TIER_AUTOLOAD:
        _lookup_tier(name)
    return tuple(sorted(_TIER_REGISTRY))


def _lookup_tier(name: str) -> ArtifactTier | None:
    tier = _TIER_REGISTRY.get(name)
    if tier is None and name in _TIER_AUTOLOAD:
        try:
            importlib.import_module(_TIER_AUTOLOAD[name])
        except ImportError:  # pragma: no cover - owner module broken
            return None
        tier = _TIER_REGISTRY.get(name)
    return tier


def _tier(name: str) -> ArtifactTier:
    tier = _lookup_tier(name)
    if tier is None:
        raise ValueError(f"unknown tier {name!r}; must be one of "
                         f"{sorted(_TIER_REGISTRY)}")
    return tier


register_tier(ArtifactTier("p1", save_inspection_p1, load_inspection_p1,
                           default_memory_entries=8))
register_tier(ArtifactTier("hmatrix", save_hmatrix, load_hmatrix,
                           default_memory_entries=16))
register_tier(ArtifactTier("profile", save_tuning_profile,
                           load_tuning_profile, default_memory_entries=32,
                           prepare=_prepare_profile))


@dataclass
class StoreStats:
    """Where gets were served from (and what writes/evictions happened)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    integrity_failures: int = 0
    quarantined: int = 0
    gc_runs: int = 0
    gc_removed: int = 0
    gc_reclaimed_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {k: int(v) for k, v in self.__dict__.items()}


class _LRU:
    """Tiny ordered-dict LRU (callers hold the store lock)."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[str, tuple[str, Any]] = OrderedDict()

    def get(self, key: str) -> tuple[str, Any] | None:
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def pop(self, key: str) -> None:
        self._data.pop(key, None)

    def put(self, key: str, value: tuple[str, Any]) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def items(self) -> list[tuple[str, tuple[str, Any]]]:
        return list(self._data.items())

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class PlanStore:
    """Content-addressed plan/HMatrix store with memory and disk tiers.

    Parameters
    ----------
    directory:
        Artifact directory (created if missing). ``None`` keeps the store
        memory-only — the Session default, equivalent to the old pure-LRU
        behaviour, with :meth:`flush` available to persist later.
    max_bytes:
        On-disk capacity; the least-recently-used artifacts are evicted
        after each put to stay under it. ``None`` (default) is unbounded.
    memory_p1 / memory_hmatrix:
        Capacities of the two in-memory LRU tiers.

    ``get_*`` returns ``None`` on a miss, the artifact on a hit, and
    raises :class:`PlanStoreError` on a hit whose bytes fail verification
    (fail closed — a corrupt store never silently rebuilds or serves).
    """

    def __init__(self, directory: str | Path | None = None, *,
                 max_bytes: int | None = None,
                 memory_p1: int = 8, memory_hmatrix: int = 16,
                 memory_profile: int = 32,
                 memory_entries: dict[str, int] | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        # Per-tier LRU capacity overrides. The legacy keyword names cover
        # the built-in tiers; ``memory_entries={"compiled": 4, ...}``
        # covers any registered tier. LRUs themselves are created lazily
        # (_mem_for), so tiers registered *after* this store was built
        # still get a memory front.
        self._mem_capacity: dict[str, int] = {
            "p1": memory_p1, "hmatrix": memory_hmatrix,
                              "profile": memory_profile,
                              **(memory_entries or {})}
        self._mem: dict[str, _LRU] = {}
        self._lock = make_rlock("PlanStore._lock")
        self.stats = StoreStats()

    def _mem_for(self, tier: str) -> _LRU:
        mem = self._mem.get(tier)
        if mem is None:
            capacity = self._mem_capacity.get(
                tier, _tier(tier).default_memory_entries)
            mem = self._mem[tier] = _LRU(capacity)
        return mem

    # ------------------------------------------------------------ addressing
    @staticmethod
    def digest(tier: str, key: Any) -> str:
        """Stable content address of a cache key within a tier."""
        _tier(tier)  # validates the tier name
        payload = repr((tier, repr(key)))
        return hashlib.sha256(payload.encode()).hexdigest()[:32]

    def _paths(self, digest: str) -> tuple[Path, Path]:
        assert self.directory is not None  # callers check the disk tier
        return (self.directory / f"{digest}.npz",
                self.directory / f"{digest}.json")

    def _manifests(self) -> list[Path]:
        """On-disk manifests, excluding in-flight/orphaned temp files.

        Temp names keep the real suffixes (numpy insists on ``.npz``), so
        every directory scan must filter them: a crash-orphaned partial
        temp file is garbage to ignore, not an artifact — it must never
        fail ``warm()``/``entries()`` on a healthy store. Stale orphans
        are swept only after a very conservative hour — a slow concurrent
        writer must never have a live temp file deleted from under it.
        """
        assert self.directory is not None  # callers check the disk tier
        out: list[Path] = []
        # analysis: waive R004 -- orphan-sweep age cutoff: gc bookkeeping,
        # never part of a payload or key
        cutoff = time.time() - 3600.0
        for p in self.directory.glob("*.json"):
            if ".tmp." in p.name:
                self._sweep_orphan(p, cutoff)
                continue
            out.append(p)
        for p in self.directory.glob("*.tmp.npz"):
            self._sweep_orphan(p, cutoff)
        return out

    def _manifests_by_mtime(self) -> list[Path]:
        """Manifests oldest-used first, tolerating a concurrent evictor:
        a manifest deleted between the glob and its stat() is simply an
        entry that no longer exists, not an error."""
        stamped: list[tuple[float, str, Path]] = []
        for p in self._manifests():
            try:
                stamped.append((p.stat().st_mtime, str(p), p))
            except OSError:
                continue
        return [p for _, _, p in sorted(stamped)]

    @staticmethod
    def _sweep_orphan(path: Path, cutoff: float) -> None:
        # OSError: raced with its writer; the next sweep retries.
        with contextlib.suppress(OSError):  # pragma: no cover
            if path.stat().st_mtime < cutoff:
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------ public API
    def get(self, tier: str, key: Any) -> Any:
        """Artifact stored under ``(tier, key)`` — ``None`` on a miss.

        The one get path for every registered :class:`ArtifactTier`
        (memory LRU → verified disk load). Raises
        :class:`PlanStoreError` on a hit whose bytes fail verification.
        """
        digest = self.digest(tier, key)
        with self._lock:
            hit = self._mem_for(tier).get(digest)
            if hit is not None:
                self.stats.memory_hits += 1
                if self.directory is not None:
                    # Memory hits must count as "used" for disk eviction
                    # too, or max_bytes would evict the hottest artifacts
                    # (their manifests would keep their compile-time
                    # mtime while only cold entries got touched on get).
                    self._touch(self._paths(digest)[1])
                return hit[1]
            if self.directory is None:
                self.stats.misses += 1
                return None
            payload_path, manifest_path = self._paths(digest)
            if not manifest_path.exists():
                self.stats.misses += 1
                return None
            try:
                manifest = self._read_manifest(manifest_path)
                if manifest.get("tier") != tier:
                    # Keys hash the tier into the digest, so a mismatch
                    # means the manifest content itself was rewritten.
                    self._integrity_error(
                        f"manifest {manifest_path} records tier "
                        f"{manifest.get('tier')!r}, expected {tier!r}",
                        quarantine=True)
                value = self._verified_load(tier, payload_path, manifest)
            except PlanStoreError as exc:
                if not manifest_path.exists():
                    # A concurrent evictor deleted the entry mid-read:
                    # that is a clean miss, not corruption.
                    self.stats.misses += 1
                    return None
                self._quarantine_if_flagged(exc, manifest_path)
                raise
            self._touch(manifest_path)  # LRU recency for eviction
            self._mem_for(tier).put(digest, (repr(key), value))
            self.stats.disk_hits += 1
            return value

    def put(self, tier: str, key: Any, value: Any) -> str:
        """Persist ``value`` under ``(tier, key)``; returns the digest.

        Applies the tier's ``prepare`` hook (wire-format coercion), then
        writes memory + disk atomically.
        """
        tier_desc = _tier(tier)
        if tier_desc.prepare is not None:
            value = tier_desc.prepare(value)
        digest = self.digest(tier, key)
        with self._lock:
            self._mem_for(tier).put(digest, (repr(key), value))
            if self.directory is not None:
                self._write(self.directory, tier, digest, repr(key), value)
                self.stats.puts += 1
                self._evict()
        return digest

    @staticmethod
    def _touch(path: Path) -> None:
        # OSError: raced with eviction; recency update is best-effort.
        with contextlib.suppress(OSError):  # pragma: no cover
            os.utime(path)

    # ------------------------------------------------------------ disk layer
    def _integrity_error(self, message: str, *, quarantine: bool = False,
                         cause: Exception | None = None) -> NoReturn:
        """Fail closed. ``quarantine=True`` marks the error as *artifact
        corruption* (vs. e.g. version skew, which other builds may still
        read): the caller then deletes the entry so the next request is
        a clean miss that rebuilds — fail closed now, recover on retry.
        """
        self.stats.integrity_failures += 1
        exc = PlanStoreError(message)
        exc.quarantine = quarantine
        raise exc from cause

    def _quarantine_if_flagged(self, exc: Exception,
                               manifest_path: Path) -> None:
        if getattr(exc, "quarantine", False):
            # Manifest first: its absence makes the entry a miss even if
            # the payload unlink loses a race.
            manifest_path.unlink(missing_ok=True)
            manifest_path.with_suffix(".npz").unlink(missing_ok=True)
            self._mem_drop(manifest_path.stem)
            self.stats.quarantined += 1

    def _mem_drop(self, digest: str) -> None:
        for mem in self._mem.values():
            mem.pop(digest)

    def _read_manifest(self, manifest_path: Path) -> dict[str, Any]:
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._integrity_error(
                f"store manifest {manifest_path} is unreadable or not JSON "
                f"({type(exc).__name__}: {exc})",
                quarantine=True, cause=exc)
        if not isinstance(manifest, dict) or "sha256" not in manifest:
            self._integrity_error(
                f"store manifest {manifest_path} is missing its sha256 "
                f"field", quarantine=True)
        if manifest.get("store_version") != STORE_VERSION:
            # Version skew is NOT corruption: another build may read this
            # artifact fine, so it is never quarantined (gc() evicts
            # skewed artifacts explicitly, on request).
            self._integrity_error(
                f"store manifest {manifest_path} has version "
                f"{manifest.get('store_version')!r}; this build reads "
                f"version {STORE_VERSION}")
        return manifest

    def _verified_load(self, tier: str, payload_path: Path,
                       manifest: dict[str, Any]) -> Any:
        try:
            payload = payload_path.read_bytes()
        except OSError as exc:
            self._integrity_error(
                f"store payload {payload_path} is unreadable although its "
                f"manifest exists ({exc})", quarantine=True, cause=exc)
        actual = hashlib.sha256(payload).hexdigest()
        if actual != manifest["sha256"]:
            self._integrity_error(
                f"store payload {payload_path} failed its SHA-256 integrity "
                f"check (expected {manifest['sha256'][:12]}…, got "
                f"{actual[:12]}…); refusing to serve a tampered or torn "
                f"artifact", quarantine=True)
        # Chaos hook: rot the bytes *between* verification and decode —
        # the TOCTOU window an on-disk tamper test cannot reach. No plan
        # installed (production, always) is a single None check.
        plan = active_fault_plan()
        if plan is not None and plan.take_corrupt(tier):
            payload = payload[:max(len(payload) // 2, 1)]
        try:
            # Decode the bytes already read for the integrity check; the
            # payload file is not read twice.
            return _tier(tier).load(io.BytesIO(payload))
        except PlanStoreError as exc:
            self._integrity_error(
                f"store payload {payload_path}: {exc}",
                quarantine=True, cause=exc)

    def _write(self, directory: Path, tier: str, digest: str,
               key_repr: str, value: Any) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        payload_path = directory / f"{digest}.npz"
        manifest_path = directory / f"{digest}.json"
        # Payload first, atomically; the temp name keeps the .npz suffix so
        # numpy does not append a second one.
        tmp_payload = directory / f"{digest}.{os.getpid()}.tmp.npz"
        try:
            _tier(tier).save(value, tmp_payload)
            # Hash what was written, before it becomes visible: one
            # streamed pass, never the whole payload in memory at once.
            sha256, size = _file_digest(tmp_payload)
            os.replace(tmp_payload, payload_path)
        finally:
            tmp_payload.unlink(missing_ok=True)
        manifest = {
            "store_version": STORE_VERSION,
            "tier": tier,
            "key": key_repr,
            "sha256": sha256,
            "size": size,
            # analysis: waive R004 -- entry age for `repro gc --max-age`;
            # the content address is the sha256 above, never this stamp
            "created": time.time(),
        }
        # Manifest last (its existence implies a complete payload).
        tmp_manifest = directory / f"{digest}.{os.getpid()}.tmp.json"
        try:
            tmp_manifest.write_text(json.dumps(manifest, indent=1))
            os.replace(tmp_manifest, manifest_path)
        finally:
            tmp_manifest.unlink(missing_ok=True)

    def _evict(self) -> None:
        """Drop least-recently-used artifacts until under ``max_bytes``."""
        if self.max_bytes is None or self.directory is None:
            return
        # (mtime, total_bytes, payload_path, manifest_path)
        entries: list[tuple[float, int, Path, Path]] = []
        for manifest_path in self._manifests():
            payload_path = manifest_path.with_suffix(".npz")
            try:
                size = manifest_path.stat().st_size
                mtime = manifest_path.stat().st_mtime
                if payload_path.exists():
                    size += payload_path.stat().st_size
            except OSError:
                continue
            entries.append((mtime, size, payload_path, manifest_path))
        entries.sort()
        total = sum(e[1] for e in entries)
        # Never evict the most recently used entry — a single artifact
        # larger than max_bytes would otherwise churn forever.
        while total > self.max_bytes and len(entries) > 1:
            _, size, payload_path, manifest_path = entries.pop(0)
            manifest_path.unlink(missing_ok=True)  # manifest first
            payload_path.unlink(missing_ok=True)
            total -= size
            self.stats.evictions += 1

    # ----------------------------------------------------------- maintenance
    def entries(self) -> list[dict[str, Any]]:
        """Manifests of every on-disk artifact (oldest-used first)."""
        if self.directory is None:
            return []
        with self._lock:
            out: list[dict[str, Any]] = []
            for manifest_path in self._manifests_by_mtime():
                try:
                    manifest = self._read_manifest(manifest_path)
                except PlanStoreError:
                    if not manifest_path.exists():
                        continue  # concurrently evicted, not corrupt
                    raise
                out.append({**manifest, "digest": manifest_path.stem})
            return out

    def disk_bytes(self) -> int:
        """Total on-disk footprint (payloads + manifests)."""
        if self.directory is None:
            return 0
        return sum(p.stat().st_size
                   for pat in ("*.json", "*.npz")
                   for p in self.directory.glob(pat)
                   if ".tmp." not in p.name)

    def warm(self) -> int:
        """Load-and-verify every on-disk artifact through the memory tiers.

        Returns the number of artifacts verified. Integrity failures
        raise :class:`PlanStoreError` (fail closed) — a warm() that
        succeeds means *every* artifact verified. Residency afterwards is
        still bounded by the memory-tier capacities: artifacts are
        visited oldest-used first, so when the store holds more than
        ``memory_p1``/``memory_hmatrix`` entries the *most recently used*
        ones are the ones left resident; the rest verify and fall back to
        disk hits on first request.
        """
        if self.directory is None:
            return 0
        count = 0
        with self._lock:
            for manifest_path in self._manifests_by_mtime():
                try:
                    manifest = self._read_manifest(manifest_path)
                except PlanStoreError as exc:
                    if not manifest_path.exists():
                        continue  # concurrently evicted, not corrupt
                    self._quarantine_if_flagged(exc, manifest_path)
                    raise
                tier = manifest.get("tier")
                if not isinstance(tier, str) or _lookup_tier(tier) is None:
                    self._integrity_error(
                        f"store manifest {manifest_path} records unknown "
                        f"tier {tier!r}")
                payload_path = manifest_path.with_suffix(".npz")
                try:
                    value = self._verified_load(tier, payload_path,
                                                manifest)
                except PlanStoreError as exc:
                    if not manifest_path.exists():
                        continue  # concurrently evicted mid-load
                    self._quarantine_if_flagged(exc, manifest_path)
                    raise
                self._mem_for(tier).put(manifest_path.stem,
                                        (manifest.get("key", ""), value))
                count += 1
        return count

    def flush(self, directory: str | Path | None = None) -> int:
        """Write every memory-tier entry to disk; returns how many.

        ``directory`` overrides the store's own (required for a
        memory-only store). Entries already on disk are rewritten
        (idempotent, atomic).
        """
        target = Path(directory) if directory is not None else self.directory
        if target is None:
            raise PlanStoreError(
                "cannot flush a memory-only PlanStore without a directory; "
                "pass flush(directory=...) or construct PlanStore(dir)")
        count = 0
        with self._lock:
            for tier, mem in self._mem.items():
                for digest, (key_repr, value) in mem.items():
                    self._write(target, tier, digest, key_repr, value)
                    self.stats.puts += 1
                    count += 1
            if target == self.directory:
                self._evict()
        return count

    def clear_memory(self) -> None:
        """Drop the memory tiers (disk artifacts are untouched)."""
        with self._lock:
            for mem in self._mem.values():
                mem.clear()

    def gc(self, max_age: float | None = None, *,
           keep_other_versions: bool = False, dry_run: bool = False,
           now: float | None = None) -> dict[str, int]:
        """Evict artifacts by age and version skew; report reclaimed bytes.

        Removes, and reports the bytes of:

        * artifacts not *used* (manifest mtime — touched on every get)
          within the last ``max_age`` seconds (``None`` disables age
          eviction);
        * artifacts written by a different store-layout version (this
          build cannot read them; pass ``keep_other_versions=True`` to
          preserve them for the build that can);
        * unreadable manifests, and orphaned payloads whose manifest is
          gone (both are unserveable debris — orphans get the same
          conservative 1-hour grace as temp files, so a concurrent
          writer between its payload and manifest renames is safe);
        * run manifests under ``manifests/`` older than ``max_age``.

        ``dry_run=True`` reports without deleting. Returns a report dict
        (``scanned``/``removed``/``kept``/``reclaimed_bytes``/
        ``run_manifests_removed``); cumulative totals land in
        :class:`StoreStats` (``gc_runs``/``gc_removed``/
        ``gc_reclaimed_bytes``).
        """
        report: dict[str, int] = {
            "scanned": 0, "removed": 0, "kept": 0,
            "reclaimed_bytes": 0, "run_manifests_removed": 0}
        if self.directory is None:
            return report
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0 or None, got {max_age}")
        # analysis: waive R004 -- gc clock, overridable via `now=` for tests
        now = time.time() if now is None else float(now)
        with self._lock:
            for manifest_path in self._manifests():
                report["scanned"] += 1
                payload_path = manifest_path.with_suffix(".npz")
                try:
                    stat = manifest_path.stat()
                except OSError:
                    continue  # concurrently evicted
                size = stat.st_size
                if payload_path.exists():
                    size += payload_path.stat().st_size
                try:
                    manifest = json.loads(manifest_path.read_text())
                    version = (manifest.get("store_version")
                               if isinstance(manifest, dict) else None)
                    readable = True
                except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                    version, readable = None, False
                # Unreadable debris is always collected; otherwise keep
                # version-skewed entries on request and current entries
                # within the age window.
                keep = readable and (
                    (version != STORE_VERSION and keep_other_versions)
                    or (version == STORE_VERSION
                        and (max_age is None
                             or now - stat.st_mtime <= max_age)))
                if keep:
                    report["kept"] += 1
                    continue
                report["removed"] += 1
                report["reclaimed_bytes"] += size
                if not dry_run:
                    manifest_path.unlink(missing_ok=True)
                    payload_path.unlink(missing_ok=True)
                    self._mem_drop(manifest_path.stem)
            for payload_path in self.directory.glob("*.npz"):
                if (".tmp." in payload_path.name
                        or payload_path.with_suffix(".json").exists()):
                    continue
                try:
                    stat = payload_path.stat()
                except OSError:
                    continue
                if now - stat.st_mtime <= 3600.0:
                    continue  # writer grace: manifest rename may be next
                report["scanned"] += 1
                report["removed"] += 1
                report["reclaimed_bytes"] += stat.st_size
                if not dry_run:
                    payload_path.unlink(missing_ok=True)
            manifests_dir = self.directory / "manifests"
            if max_age is not None and manifests_dir.is_dir():
                for run_path in manifests_dir.glob("run-*.json"):
                    try:
                        stat = run_path.stat()
                    except OSError:
                        continue
                    if now - stat.st_mtime <= max_age:
                        continue
                    report["run_manifests_removed"] += 1
                    report["reclaimed_bytes"] += stat.st_size
                    if not dry_run:
                        run_path.unlink(missing_ok=True)
            if not dry_run:
                self.stats.gc_runs += 1
                self.stats.gc_removed += report["removed"]
                self.stats.gc_reclaimed_bytes += report["reclaimed_bytes"]
        return report

    # ------------------------------------------------------------- reporting
    def cache_info(self) -> dict[str, Any]:
        """Tier occupancy + hit/miss counters (for logs and tests)."""
        with self._lock:
            tiers = {"p1", "hmatrix", "profile", *self._mem}
            return {
                **{f"{name}_entries": len(self._mem.get(name) or ())
                   for name in sorted(tiers)},
                "disk_entries": (len(self._manifests())
                                 if self.directory is not None else 0),
                **self.stats.as_dict(),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.directory) if self.directory else "memory-only"
        entries = sum(len(mem) for mem in self._mem.values())
        return f"PlanStore({where}, memory_entries={entries})"
