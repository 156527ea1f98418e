"""PlanStore: tiered get path, durability, integrity, eviction, warm-start.

The acceptance bar for compile-once/serve-forever: a *fresh* Session over
an existing store directory must serve its first matmul with zero
``p1_builds``/``p2_builds`` (counters asserted), and a tampered artifact
must fail closed with :class:`PlanStoreError`.
"""

import hashlib
import json
import threading
import zipfile

import numpy as np
import pytest

from repro import PlanConfig, PlanStore, PlanStoreError, Session
from repro.api import store as store_mod
from repro.api.store import registered_tiers

PLAN = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)


def _tamper(directory, tier="hmatrix", mode="flip"):
    """Corrupt every payload of ``tier`` in a store directory."""
    hit = 0
    for manifest_path in directory.glob("*.json"):
        if json.loads(manifest_path.read_text())["tier"] != tier:
            continue
        payload = manifest_path.with_suffix(".npz")
        if mode == "flip":
            data = bytearray(payload.read_bytes())
            data[len(data) // 2] ^= 0xFF
            payload.write_bytes(bytes(data))
        elif mode == "truncate":
            payload.write_bytes(payload.read_bytes()[:64])
        elif mode == "unlink":
            payload.unlink()
        hit += 1
    assert hit, f"no {tier} artifact found to tamper with"


@pytest.fixture()
def store_dir(tmp_path, points_2d, gaussian_kernel):
    """A store directory compiled by one (now closed) session."""
    d = tmp_path / "store"
    with Session(plan=PLAN, store=PlanStore(d)) as session:
        session.inspect(points_2d, kernel=gaussian_kernel)
    return d


class TestMemoryTier:
    def test_get_put_roundtrip_identity(self, hmatrix_2d):
        store = PlanStore()
        key = ("pfp", "planfp", ("gaussian",))
        assert store.get("hmatrix", key) is None
        store.put("hmatrix", key, hmatrix_2d)
        assert store.get("hmatrix", key) is hmatrix_2d
        assert store.stats.memory_hits == 1 and store.stats.misses == 1

    def test_lru_capacity_respected(self, hmatrix_2d):
        store = PlanStore(memory_hmatrix=2)
        for i in range(3):
            store.put("hmatrix", ("k", i), hmatrix_2d)
        assert store.get("hmatrix", ("k", 0)) is None  # evicted, oldest
        assert store.get("hmatrix", ("k", 2)) is hmatrix_2d

    def test_memory_only_flush_requires_directory(self, hmatrix_2d,
                                                  tmp_path):
        store = PlanStore()
        store.put("hmatrix", ("k",), hmatrix_2d)
        with pytest.raises(PlanStoreError, match="memory-only"):
            store.flush()
        assert store.flush(tmp_path / "snap") == 1
        assert PlanStore(tmp_path / "snap").get("hmatrix", ("k",)) is not None

    def test_distinct_keys_distinct_digests(self):
        d1 = PlanStore.digest("hmatrix", ("a", "b"))
        d2 = PlanStore.digest("hmatrix", ("a", "c"))
        d3 = PlanStore.digest("p1", ("a", "b"))
        assert len({d1, d2, d3}) == 3

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            PlanStore.digest("p3", ("a",))


class TestDiskTier:
    def test_hmatrix_roundtrip_same_product(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path)
        key = ("pfp", "planfp", ("gaussian",))
        store.put("hmatrix", key, hmatrix_2d)
        fresh = PlanStore(tmp_path)  # no memory tier content
        H2 = fresh.get("hmatrix", key)
        assert fresh.stats.disk_hits == 1
        W = np.random.default_rng(0).random((hmatrix_2d.dim, 4))
        np.testing.assert_array_equal(hmatrix_2d.matmul(W), H2.matmul(W))

    def test_p1_roundtrip(self, p1_2d, inspector_small, gaussian_kernel,
                          tmp_path):
        store = PlanStore(tmp_path)
        store.put("p1", ("pfp", "p1fp"), p1_2d)
        p1b = PlanStore(tmp_path).get("p1", ("pfp", "p1fp"))
        H_a = inspector_small.run_p2(p1_2d, gaussian_kernel)
        H_b = inspector_small.run_p2(p1b, gaussian_kernel)
        W = np.random.default_rng(1).random((H_a.dim, 3))
        np.testing.assert_allclose(H_a.matmul(W), H_b.matmul(W), atol=1e-10)

    def test_second_get_served_from_memory(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path)
        store.put("hmatrix", ("k",), hmatrix_2d)
        fresh = PlanStore(tmp_path)
        fresh.get("hmatrix", ("k",))
        fresh.get("hmatrix", ("k",))
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.memory_hits == 1

    def test_manifest_records_key_and_sha(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path)
        key = ("pfp", "planfp", ("gaussian", (("bandwidth", 0.5),)))
        store.put("hmatrix", key, hmatrix_2d)
        (entry,) = store.entries()
        assert entry["tier"] == "hmatrix"
        assert entry["key"] == repr(key)
        assert len(entry["sha256"]) == 64
        assert entry["size"] > 0

    def test_no_tmp_litter_after_put(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path)
        store.put("hmatrix", ("k",), hmatrix_2d)
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_warm_preloads_memory(self, store_dir):
        store = PlanStore(store_dir)
        assert store.warm() == 2  # one p1 + one hmatrix artifact
        info = store.cache_info()
        assert info["p1_entries"] == 1 and info["hmatrix_entries"] == 1


def _put_all(store, hmatrix_2d, p1_2d):
    """One artifact of each built-in tier; returns {tier: key}."""
    keys = {"hmatrix": ("pfp", "planfp"), "p1": ("pfp", "p1fp"),
            "profile": ("planfp", "host")}
    store.put("hmatrix", keys["hmatrix"], hmatrix_2d)
    store.put("p1", keys["p1"], p1_2d)
    store.put("profile", keys["profile"], {"crossovers": {"batched": 64}})
    return keys


class TestPayloadCodec:
    """Payloads are stored uncompressed and hashed in one streamed pass;
    deflated payloads from older builds stay readable and warm."""

    def test_every_payload_member_stored(self, hmatrix_2d, p1_2d,
                                         tmp_path):
        _put_all(PlanStore(tmp_path), hmatrix_2d, p1_2d)
        payloads = sorted(tmp_path.glob("*.npz"))
        assert len(payloads) == 3
        for payload in payloads:
            with zipfile.ZipFile(payload) as zf:
                kinds = {i.compress_type for i in zf.infolist()}
            assert kinds == {zipfile.ZIP_STORED}, payload

    def test_streamed_hash_matches_one_shot_hash(self, hmatrix_2d, p1_2d,
                                                 tmp_path, monkeypatch):
        # A chunk size that divides no payload forces many full chunks
        # plus a short tail through the streamed hash.
        monkeypatch.setattr(store_mod, "_HASH_CHUNK", 1000)
        store = PlanStore(tmp_path)
        _put_all(store, hmatrix_2d, p1_2d)
        entries = store.entries()
        assert len(entries) == 3
        for entry in entries:
            data = (tmp_path / f"{entry['digest']}.npz").read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            assert entry["size"] == len(data)

    def test_deflated_store_loads_identically(self, hmatrix_2d, p1_2d,
                                              tmp_path, deflate_npz):
        keys = _put_all(PlanStore(tmp_path), hmatrix_2d, p1_2d)
        stored = PlanStore(tmp_path)
        want = {tier: stored.get(tier, key) for tier, key in keys.items()}
        # Rewrite every entry the way older builds wrote it: deflated
        # payload, manifest hashing those bytes.
        for manifest_path in tmp_path.glob("*.json"):
            payload = deflate_npz(manifest_path.with_suffix(".npz"))
            data = payload.read_bytes()
            manifest = json.loads(manifest_path.read_text())
            manifest["sha256"] = hashlib.sha256(data).hexdigest()
            manifest["size"] = len(data)
            manifest_path.write_text(json.dumps(manifest))

        fresh = PlanStore(tmp_path)
        assert fresh.warm() == 3
        got = {tier: fresh.get(tier, key) for tier, key in keys.items()}
        assert fresh.stats.integrity_failures == 0
        H_a, H_b = want["hmatrix"], got["hmatrix"]
        for buf in ("basis_buf", "near_buf", "far_buf"):
            assert (getattr(H_b.cds, buf).tobytes()
                    == getattr(H_a.cds, buf).tobytes())
        W = np.random.default_rng(2).random((H_a.dim, 3))
        assert H_b.matmul(W).tobytes() == H_a.matmul(W).tobytes()
        assert (got["p1"].tree.perm.tobytes()
                == want["p1"].tree.perm.tobytes())
        assert got["p1"].near_blockset.blocks == (
            want["p1"].near_blockset.blocks)
        assert got["profile"] == want["profile"]


class TestIntegrity:
    @pytest.mark.parametrize("mode", ["flip", "truncate", "unlink"])
    def test_tampered_hmatrix_fails_closed(self, store_dir, points_2d,
                                           gaussian_kernel, mode):
        _tamper(store_dir, "hmatrix", mode)
        store = PlanStore(store_dir)
        with Session(plan=PLAN, store=store) as session, \
                pytest.raises(PlanStoreError):
            session.inspect(points_2d, kernel=gaussian_kernel)
        assert store.stats.integrity_failures >= 1

    def test_tampered_p1_fails_closed(self, store_dir, points_2d,
                                      gaussian_kernel):
        # Remove the hmatrix artifact so inspection reaches the p1 tier.
        _tamper(store_dir, "hmatrix", "unlink")
        for m in store_dir.glob("*.json"):
            if json.loads(m.read_text())["tier"] == "hmatrix":
                m.unlink()
        _tamper(store_dir, "p1", "flip")
        with Session(plan=PLAN, store=PlanStore(store_dir)) as session, \
                pytest.raises(PlanStoreError):
            session.inspect(points_2d, kernel=gaussian_kernel)

    def test_corrupt_manifest_fails_closed(self, store_dir):
        for m in store_dir.glob("*.json"):
            m.write_text("{not json")
        with pytest.raises(PlanStoreError, match="not JSON"):
            PlanStore(store_dir).warm()

    def test_wrong_store_version_fails_closed(self, store_dir):
        for m in store_dir.glob("*.json"):
            doc = json.loads(m.read_text())
            doc["store_version"] = 999
            m.write_text(json.dumps(doc))
        with pytest.raises(PlanStoreError, match="version"):
            PlanStore(store_dir).warm()

    def test_warm_verifies_every_artifact(self, store_dir):
        _tamper(store_dir, "p1", "flip")
        with pytest.raises(PlanStoreError):
            PlanStore(store_dir).warm()


class TestEviction:
    def test_max_bytes_evicts_lru(self, hmatrix_2d, p1_2d, tmp_path):
        store = PlanStore(tmp_path, max_bytes=1)  # everything but newest
        store.put("p1", ("p1",), p1_2d)
        store.put("hmatrix", ("h",), hmatrix_2d)
        assert store.stats.evictions >= 1
        assert len(store.entries()) == 1
        # Evicted entries are clean misses (no torn state), not errors.
        fresh = PlanStore(tmp_path)
        assert fresh.get("p1", ("p1",)) is None
        assert fresh.get("hmatrix", ("h",)) is not None

    def test_newest_entry_never_evicted(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path, max_bytes=1)
        store.put("hmatrix", ("only",), hmatrix_2d)
        assert len(store.entries()) == 1

    def test_unbounded_by_default(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path)
        for i in range(3):
            store.put("hmatrix", ("k", i), hmatrix_2d)
        assert store.stats.evictions == 0
        assert len(store.entries()) == 3


class TestSessionWarmStart:
    def test_fresh_process_serves_with_zero_builds(self, store_dir,
                                                   points_2d,
                                                   gaussian_kernel):
        """THE acceptance test: cold-start after restart skips inspection."""
        with Session(plan=PLAN, store=PlanStore(store_dir)) as session:
            H = session.inspect(points_2d, kernel=gaussian_kernel)
            W = np.random.default_rng(2).random((len(points_2d), 4))
            Y = session.matmul(H, W)
        assert session.stats.p1_builds == 0
        assert session.stats.p2_builds == 0
        assert session.stats.hmatrix_hits == 1
        assert session.store.stats.disk_hits == 1
        assert np.isfinite(Y).all()

    def test_warm_start_product_matches_cold_build(self, store_dir,
                                                   points_2d,
                                                   gaussian_kernel,
                                                   inspector_small):
        H_cold = inspector_small.run(points_2d, gaussian_kernel)
        with Session(plan=PLAN, store=PlanStore(store_dir)) as session:
            H_warm = session.inspect(points_2d, kernel=gaussian_kernel)
        W = np.random.default_rng(3).random((len(points_2d), 3))
        np.testing.assert_array_equal(H_cold.matmul(W), H_warm.matmul(W))

    def test_p2_reuse_from_disk_p1(self, store_dir, points_2d,
                                   gaussian_kernel):
        """A new bacc hits the p1 disk tier: p2 rebuilds, p1 does not."""
        with Session(plan=PLAN, store=PlanStore(store_dir)) as session:
            session.inspect(points_2d, kernel=gaussian_kernel, bacc=1e-3)
        assert session.stats.p1_builds == 0
        assert session.stats.p1_hits == 1
        assert session.stats.p2_builds == 1

    def test_session_accepts_path_and_store(self, tmp_path, points_2d,
                                            gaussian_kernel):
        with Session(plan=PLAN, store=tmp_path / "s") as a:
            a.inspect(points_2d, kernel=gaussian_kernel)
        with Session(plan=PLAN, store=PlanStore(tmp_path / "s")) as b:
            b.inspect(points_2d, kernel=gaussian_kernel)
        assert b.stats.p1_builds == 0 and b.stats.p2_builds == 0
        with pytest.raises(TypeError, match="store"):
            Session(store=42)

    def test_session_save_snapshots_memory_store(self, tmp_path, points_2d,
                                                 gaussian_kernel):
        with Session(plan=PLAN) as session:  # memory-only default
            session.inspect(points_2d, kernel=gaussian_kernel)
            assert session.save(tmp_path / "snap") == 2
        with Session(plan=PLAN, store=tmp_path / "snap") as warm:
            warm.inspect(points_2d, kernel=gaussian_kernel)
        assert warm.stats.p1_builds == 0 and warm.stats.p2_builds == 0

    def test_session_warm_preloads(self, store_dir, points_2d,
                                   gaussian_kernel):
        with Session(plan=PLAN, store=PlanStore(store_dir)) as session:
            assert session.warm() == 2
            session.inspect(points_2d, kernel=gaussian_kernel)
        assert session.store.stats.memory_hits == 1
        assert session.store.stats.disk_hits == 0  # preloaded by warm()


class TestThreadSafety:
    def test_concurrent_get_put(self, hmatrix_2d, tmp_path):
        store = PlanStore(tmp_path)
        errors = []

        def worker(i):
            try:
                for j in range(5):
                    store.put("hmatrix", ("k", i, j), hmatrix_2d)
                    assert store.get("hmatrix", ("k", i, j)) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store.entries()) == 20


def test_tier_registry_covers_all_formats():
    # The compiled tier self-registers via the autoload hook, so the
    # registry enumerates all four without an explicit import here.
    assert set(registered_tiers()) >= {"p1", "hmatrix", "profile",
                                       "compiled"}


def test_session_rejects_sizes_with_existing_store(tmp_path):
    with pytest.raises(ValueError, match="size it directly"):
        Session(store=PlanStore(tmp_path), hmatrix_cache_size=64)
    with pytest.raises(ValueError, match="size it directly"):
        Session(store=PlanStore(tmp_path), p1_cache_size=4)
    # Sizes with a *path* store are fine (the session builds the store).
    with Session(store=tmp_path / "s", hmatrix_cache_size=4) as s:
        assert s.store._mem_for("hmatrix").maxsize == 4


class TestOrphanedTempFiles:
    """A crash-orphaned temp file must never break a healthy store."""

    def test_warm_and_entries_ignore_tmp_litter(self, store_dir):
        (store_dir / "deadbeef.1234.tmp.json").write_text("{partial")
        (store_dir / "deadbeef.1234.tmp.npz").write_bytes(b"partial")
        store = PlanStore(store_dir)
        assert store.warm() == 2           # tmp litter is not an artifact
        assert len(store.entries()) == 2
        assert store.cache_info()["disk_entries"] == 2

    def test_stale_orphans_swept(self, store_dir):
        import os
        import time

        orphan = store_dir / "deadbeef.1234.tmp.json"
        orphan.write_text("{partial")
        old = time.time() - 7200  # well past the 1-hour sweep cutoff
        os.utime(orphan, (old, old))
        PlanStore(store_dir).entries()
        assert not orphan.exists()

    def test_fresh_orphans_left_for_their_writer(self, store_dir):
        orphan = store_dir / "deadbeef.1234.tmp.json"
        orphan.write_text("{partial")   # mtime = now: writer may be alive
        PlanStore(store_dir).entries()
        assert orphan.exists()


def test_memory_hits_refresh_disk_eviction_recency(hmatrix_2d, p1_2d,
                                                   tmp_path):
    """The hot artifact (served from memory) must outlive a cold one when
    max_bytes forces an eviction."""
    import os
    import time

    store = PlanStore(tmp_path)  # unbounded while populating
    store.put("hmatrix", ("hot",), hmatrix_2d)
    store.put("p1", ("cold",), p1_2d)
    # Make both look old, then serve "hot" from the memory tier.
    old = time.time() - 3600
    for m in tmp_path.glob("*.json"):
        os.utime(m, (old, old))
    assert store.get("hmatrix", ("hot",)) is not None  # memory hit
    assert store.stats.memory_hits == 1
    store.max_bytes = 1
    store.put("hmatrix", ("new",), hmatrix_2d)  # triggers eviction
    names = {e["key"] for e in store.entries()}
    assert repr(("cold",)) not in names      # cold evicted first
    assert repr(("hot",)) in names or repr(("new",)) in names


def test_session_init_failure_leaks_no_executor(monkeypatch):
    """Bad store args must be rejected before any pool is constructed."""
    from repro.api import session as sess_mod

    def forbidden(*a, **k):
        raise AssertionError("Executor constructed before validation")

    monkeypatch.setattr(sess_mod, "Executor", forbidden)
    with pytest.raises(TypeError, match="store"):
        Session(store=42)
    with pytest.raises(ValueError, match="size it directly"):
        Session(store=PlanStore(), p1_cache_size=4)


def test_scans_tolerate_concurrent_eviction(store_dir, monkeypatch):
    """A manifest deleted between the glob and its read (another
    process's evictor) is a vanished entry, not corruption."""
    store = PlanStore(store_dir)
    real = PlanStore._read_manifest

    def evict_then_read(self, manifest_path):
        if manifest_path.exists():
            manifest_path.unlink()           # simulate a racing evictor
            manifest_path.with_suffix(".npz").unlink(missing_ok=True)
        return real(self, manifest_path)

    monkeypatch.setattr(PlanStore, "_read_manifest", evict_then_read)
    assert store.entries() == []             # skipped, no raw OSError
    assert store.warm() == 0
