"""Observability layer: RunManifest determinism, schema validation,
stats export, best-effort writes, and PlanStore garbage collection.

The manifest properties are hypothesis-tested because the determinism
contract ("identical inputs -> byte-identical JSON, content-addressed
run_id") must hold for *every* stats/decisions shape, not just the ones
the serving path happens to produce today.
"""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanConfig, PlanStore, Session
from repro.api.store import STORE_VERSION
from repro.cli import main as cli_main
from repro.observability import (
    MANIFEST_VERSION,
    RunManifest,
    SchemaError,
    collect_stats,
    load_manifest_schema,
    manifest_write_failures,
    metrics_text,
    store_inventory,
    validate_json,
    validate_run_manifest,
    write_run_manifest,
)

PLAN = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)

# ---------------------------------------------------------------------------
# Strategies: stats/decisions shaped like what the collectors produce (the
# schema constrains the envelope, not every counter name).
# ---------------------------------------------------------------------------

_counter_values = st.one_of(
    st.integers(0, 10**9),
    st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
)
_counter_dicts = st.dictionaries(
    st.text(alphabet="abcdefghij_", min_size=1, max_size=10),
    _counter_values, max_size=4)

_stats_docs = st.fixed_dictionaries({}, optional={
    "store": _counter_dicts,
    "session": _counter_dicts,
    "service": _counter_dicts,
    "engines": _counter_dicts,
    "autotune": _counter_dicts,
    "manifest_write_failures": st.integers(0, 9),
})

_decision_docs = st.lists(st.fixed_dictionaries({
    "policy": _counter_dicts,
    "source": st.sampled_from(["measured", "prior"]),
    "margin": st.floats(0, 100, allow_nan=False, allow_infinity=False),
    "width_bucket": st.sampled_from([1, 16, 256]),
    "trials": st.integers(0, 5),
    "hmatrix_fp": st.text(alphabet="0123456789abcdef",
                          min_size=4, max_size=16),
}), max_size=3)

FAST = settings(max_examples=25, deadline=None)


def _shuffled(obj):
    """Deep copy with every dict's insertion order reversed — equal value,
    different construction order."""
    if isinstance(obj, dict):
        return {k: _shuffled(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_shuffled(v) for v in obj]
    return obj


class TestRunManifestProperties:
    @given(stats=_stats_docs, decisions=_decision_docs)
    @FAST
    def test_roundtrip_and_schema(self, stats, decisions):
        m = RunManifest.build(stats=stats, decisions=decisions)
        clone = RunManifest.from_json(m.to_json())
        assert clone.doc == m.doc
        assert clone.run_id == m.run_id
        m.validate()  # built manifests always conform to the schema

    @given(stats=_stats_docs, decisions=_decision_docs,
           created=st.none() | st.floats(0, 2e9, allow_nan=False))
    @FAST
    def test_identical_inputs_byte_identical_json(self, stats, decisions,
                                                  created):
        a = RunManifest.build(stats=stats, decisions=decisions,
                              created=created)
        b = RunManifest.build(stats=_shuffled(stats),
                              decisions=_shuffled(decisions),
                              created=created)
        assert a.to_json() == b.to_json()  # bytes, not just equality
        assert a.run_id == b.run_id

    @given(stats=_stats_docs)
    @FAST
    def test_run_id_is_a_content_address(self, stats):
        base = RunManifest.build(stats=stats)
        moved = RunManifest.build(stats=stats, created=123.0)
        assert base.run_id != moved.run_id

    @given(stats=_stats_docs)
    @FAST
    def test_serialization_is_key_sorted(self, stats):
        doc = json.loads(RunManifest.build(stats=stats).to_json())
        text = RunManifest.build(stats=stats).to_json()
        assert text.endswith("\n")
        assert list(doc) == sorted(doc)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            RunManifest.from_json("[1, 2]")


class TestSchemaValidator:
    def test_checked_in_schema_loads(self):
        schema = load_manifest_schema()
        assert schema["properties"]["manifest_version"]["enum"] == [
            MANIFEST_VERSION]

    def test_missing_required_rejected(self):
        doc = RunManifest.build(stats={}).doc.copy()
        del doc["versions"]
        problems = validate_run_manifest(doc)
        assert any("versions" in p for p in problems)

    def test_wrong_type_rejected(self):
        doc = json.loads(RunManifest.build(stats={}).to_json())
        doc["stats"] = "not an object"
        assert validate_run_manifest(doc)

    def test_bad_run_id_pattern_rejected(self):
        doc = json.loads(RunManifest.build(stats={}).to_json())
        doc["run_id"] = "NOT-HEX"
        assert any("pattern" in p or "run_id" in p
                   for p in validate_run_manifest(doc))

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads(RunManifest.build(stats={}).to_json())
        doc["surprise"] = 1
        assert validate_run_manifest(doc)

    def test_enum_violation_rejected(self):
        doc = json.loads(RunManifest.build(stats={}, decisions=[{
            "policy": {}, "source": "measured", "margin": 1.0,
            "width_bucket": 16}]).to_json())
        doc["decisions"][0]["source"] = "guessed"
        assert validate_run_manifest(doc)

    def test_bool_is_not_an_integer(self):
        # JSON Schema distinguishes true from 1; the validator must too.
        assert validate_json(True, {"type": "integer"})
        assert not validate_json(1, {"type": "integer"})

    def test_unsupported_keyword_raises_not_ignores(self):
        # Silently ignoring an unknown constraint would validate
        # documents the schema author meant to reject.
        with pytest.raises(SchemaError, match="oneOf"):
            validate_json({}, {"oneOf": [{"type": "object"}]})

    def test_validate_raises_with_problem_list(self):
        doc = RunManifest.build(stats={}).doc.copy()
        doc["manifest_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            RunManifest({**doc}).validate()


class TestManifestWrite:
    def test_directory_target_names_by_run_id(self, tmp_path):
        m = RunManifest.build(stats={})
        path = write_run_manifest(m, tmp_path)
        assert path == tmp_path / f"run-{m.run_id}.json"
        assert RunManifest.from_json(path.read_text()).doc == m.doc
        assert not list(tmp_path.glob("*.tmp"))  # atomic: no debris

    def test_json_target_is_exact_file(self, tmp_path):
        m = RunManifest.build(stats={})
        target = tmp_path / "out.json"
        assert write_run_manifest(m, target) == target

    def test_failed_write_counts_not_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        before = manifest_write_failures()
        # Parent "directory" is a regular file: mkdir/replace must fail.
        assert write_run_manifest(RunManifest.build(stats={}),
                                  blocker / "sub") is None
        assert manifest_write_failures() == before + 1

    def test_session_close_writes_validating_manifest(self, tmp_path,
                                                      points_2d,
                                                      gaussian_kernel):
        d = tmp_path / "store"
        with Session(plan=PLAN, store=PlanStore(d), manifest=True) as s:
            H = s.inspect(points_2d, kernel=gaussian_kernel)
            s.matmul(H, np.ones(len(points_2d)))
        files = list((d / "manifests").glob("run-*.json"))
        assert len(files) == 1
        m = RunManifest.from_json(files[0].read_text())
        m.validate()
        assert m.doc["stats"]["session"]["p1_builds"] == 1
        assert m.doc["stats"]["session"]["evaluations"] == 1
        assert m.doc["versions"]["store"] == STORE_VERSION

    def test_manifest_true_needs_disk_store(self):
        with pytest.raises(ValueError, match="disk-backed"):
            Session(manifest=True)

    def test_close_idempotent_single_manifest(self, tmp_path, points_2d,
                                              gaussian_kernel):
        d = tmp_path / "store"
        s = Session(plan=PLAN, store=PlanStore(d), manifest=True)
        s.inspect(points_2d, kernel=gaussian_kernel)
        s.close()
        s.close()
        assert len(list((d / "manifests").glob("run-*.json"))) == 1


class TestStatsExport:
    def test_collect_stats_nests_every_layer(self, points_2d,
                                             gaussian_kernel):
        with Session(plan=PLAN) as s:
            H = s.inspect(points_2d, kernel=gaussian_kernel)
            s.matmul(H, np.ones(len(points_2d)))
            stats = collect_stats(session=s)
        assert stats["session"]["evaluations"] == 1
        assert stats["store"]["misses"] >= 1
        assert "autotune" in stats and "engines" not in stats
        assert stats["manifest_write_failures"] >= 0

    def test_metrics_text_flat_sorted_numeric(self):
        text = metrics_text({"a": {"b": 2, "c": 1.5}, "flag": True,
                             "name": "skipped", "z": 0})
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "repro_a_b 2" in lines
        assert "repro_a_c 1.5" in lines
        assert "repro_flag 1" in lines  # bools as 0/1
        assert "repro_z 0" in lines
        assert not any("skipped" in line for line in lines)

    def test_metrics_text_sanitizes_keys(self):
        assert metrics_text({"p99 ms": 1}) == "repro_p99_ms 1\n"

    def test_store_inventory_tolerates_rot(self, tmp_path, points_2d,
                                           gaussian_kernel):
        d = tmp_path / "store"
        with Session(plan=PLAN, store=PlanStore(d)) as s:
            s.inspect(points_2d, kernel=gaussian_kernel)
        (d / "garbage.json").write_text("{not json")
        inv = store_inventory(d)
        assert inv["entries"] == 2  # p1 + hmatrix
        assert inv["unreadable"] == 1
        assert inv["bytes"] > 0
        assert set(inv["tiers"]) == {"p1", "hmatrix"}


class TestPlanStoreGC:
    def _compiled(self, tmp_path, points, kernel):
        d = tmp_path / "store"
        with Session(plan=PLAN, store=PlanStore(d), manifest=True) as s:
            s.inspect(points, kernel=kernel)
        return d

    def test_fresh_store_fully_kept(self, tmp_path, points_2d,
                                    gaussian_kernel):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        report = PlanStore(d).gc(max_age=3600)
        assert report["removed"] == 0
        assert report["kept"] == 2
        assert report["reclaimed_bytes"] == 0

    def test_aged_store_reclaims_bytes(self, tmp_path, points_2d,
                                       gaussian_kernel):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        store = PlanStore(d)
        report = store.gc(max_age=10, now=time.time() + 60)
        assert report["removed"] == 2
        assert report["run_manifests_removed"] == 1
        assert report["reclaimed_bytes"] > 0
        assert store.cache_info()["disk_entries"] == 0
        assert store.stats.gc_runs == 1
        assert store.stats.gc_reclaimed_bytes == report["reclaimed_bytes"]

    def test_dry_run_removes_nothing(self, tmp_path, points_2d,
                                     gaussian_kernel):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        store = PlanStore(d)
        report = store.gc(max_age=10, now=time.time() + 60, dry_run=True)
        assert report["removed"] == 2
        assert report["reclaimed_bytes"] > 0
        assert store.cache_info()["disk_entries"] == 2  # untouched
        assert store.stats.gc_runs == 0

    def test_version_skew_evicted_by_default(self, tmp_path, points_2d,
                                             gaussian_kernel):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        for manifest_path in d.glob("*.json"):
            doc = json.loads(manifest_path.read_text())
            doc["store_version"] = STORE_VERSION + 1
            manifest_path.write_text(json.dumps(doc))
        report = PlanStore(d).gc()
        assert report["removed"] == 2

    def test_keep_other_versions_preserves_them(self, tmp_path, points_2d,
                                                gaussian_kernel):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        for manifest_path in d.glob("*.json"):
            doc = json.loads(manifest_path.read_text())
            doc["store_version"] = STORE_VERSION + 1
            manifest_path.write_text(json.dumps(doc))
        report = PlanStore(d).gc(keep_other_versions=True)
        assert report["removed"] == 0
        assert report["kept"] == 2

    def test_unreadable_manifest_always_collected(self, tmp_path):
        d = tmp_path / "store"
        d.mkdir()
        (d / "deadbeef.json").write_text("{not json")
        report = PlanStore(d).gc()
        assert report["removed"] == 1
        assert not (d / "deadbeef.json").exists()

    def test_orphan_payload_collected_after_grace(self, tmp_path):
        d = tmp_path / "store"
        d.mkdir()
        fresh = d / "aaaa.npz"
        stale = d / "bbbb.npz"
        fresh.write_bytes(b"x" * 10)
        stale.write_bytes(b"y" * 10)
        old = time.time() - 7200
        os.utime(stale, (old, old))
        report = PlanStore(d).gc()
        assert fresh.exists()  # writer grace: manifest may land next
        assert not stale.exists()
        assert report["reclaimed_bytes"] == 10

    def test_negative_max_age_rejected(self, tmp_path):
        (tmp_path / "s").mkdir()
        with pytest.raises(ValueError, match="max_age"):
            PlanStore(tmp_path / "s").gc(max_age=-1)

    def test_memory_only_store_is_noop(self):
        report = PlanStore().gc(max_age=0)
        assert report == {"scanned": 0, "removed": 0, "kept": 0,
                          "reclaimed_bytes": 0, "run_manifests_removed": 0}


class TestCLIObservability:
    def _compiled(self, tmp_path, points_2d, gaussian_kernel):
        d = tmp_path / "store"
        with Session(plan=PLAN, store=PlanStore(d)) as s:
            s.inspect(points_2d, kernel=gaussian_kernel)
        return d

    def test_stats_metrics_output(self, tmp_path, points_2d,
                                  gaussian_kernel, capsys):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        assert cli_main(["stats", "--store", str(d)]) == 0
        out = capsys.readouterr().out
        assert "repro_store_entries 2" in out
        assert "repro_store_bytes" in out

    def test_stats_json_output(self, tmp_path, points_2d, gaussian_kernel,
                               capsys):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        assert cli_main(["stats", "--store", str(d), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 2 and doc["unreadable"] == 0

    def test_stats_missing_store_errors(self, tmp_path, capsys):
        assert cli_main(["stats", "--store", str(tmp_path / "nope")]) == 2
        assert "no store" in capsys.readouterr().err

    def test_gc_reports_reclaimed_bytes(self, tmp_path, points_2d,
                                        gaussian_kernel, capsys):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        old = time.time() - 7200
        for p in d.glob("*.json"):
            os.utime(p, (old, old))
        assert cli_main(["gc", "--store", str(d), "--max-age", "60"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 artifact(s)" in out
        assert "reclaimed" in out
        assert not list(d.glob("*.json"))

    def test_gc_dry_run_keeps_artifacts(self, tmp_path, points_2d,
                                        gaussian_kernel, capsys):
        d = self._compiled(tmp_path, points_2d, gaussian_kernel)
        assert cli_main(["gc", "--store", str(d), "--max-age", "0",
                         "--dry-run"]) == 0
        assert "would reclaim" in capsys.readouterr().out
        assert len(list(d.glob("*.json"))) == 2
