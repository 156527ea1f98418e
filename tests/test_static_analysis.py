"""repro.analysis: lint rules R001-R004 and the write-set verifier.

The acceptance bar for the analysis layer: each fixture under
``tests/fixtures/analysis/`` fires its rule exactly once, the shipped
tree lints clean (``repro analyze --strict`` exits 0), and a doctored
compiled artifact is rejected *before* execution — the cache degrades
to batched bytes, never raises.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import PlanStore, inspector
from repro.analysis import (
    AnalysisError,
    Finding,
    analysis_counters,
    bump_analysis_counter,
    findings_to_doc,
    lint_paths,
    lint_source,
    reset_analysis_counters,
    verify_artifact,
    verify_artifact_file,
)
from repro.cli import main as cli_main
from repro.codegen.compiled import (
    CompiledArtifact,
    CompiledCache,
    compile_evaluator,
    reset_default_compiled_cache,
    save_compiled_artifact,
)
from repro.tuning.profile import hmatrix_fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


@pytest.fixture(autouse=True)
def _reset_analysis_state():
    reset_analysis_counters()
    reset_default_compiled_cache()
    yield
    reset_analysis_counters()
    reset_default_compiled_cache()


@pytest.fixture(scope="module")
def H():
    points = np.random.default_rng(7).random((600, 2))
    H = inspector(points, kernel="gaussian", structure="h2-geometric",
                  leaf_size=32)
    assert H.evaluator.decision.batch
    return H


@pytest.fixture(scope="module")
def W(H):
    return np.random.default_rng(8).random((H.dim, 6))


def fresh(H):
    from dataclasses import replace
    return replace(H, _batched=None, _batched_built=False,
                   _compiled=None, _compiled_built=False)


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture(scope="module")
def artifact(H):
    return compile_evaluator(fresh(H)).artifact


def _doctored(artifact, *, source=None, meta=None, **table_overrides):
    """A copy of ``artifact`` with selected parts replaced."""
    return CompiledArtifact(
        meta={**artifact.meta, **(meta or {})},
        source=source if source is not None else artifact.source,
        tables={**artifact.tables, **table_overrides})


def _overlap_near(artifact):
    """Tables whose second near panel writes over the first (the
    single-writer violation the verifier exists to catch)."""
    ns = np.asarray(artifact.tables["near_specs"]).copy()
    assert ns.shape[0] >= 2
    ns[1, 3] = ns[0, 3]  # si column: two panels, same output interval
    return _doctored(artifact, near_specs=ns)


# --------------------------------------------------------------------------
# Lint rules on their fixtures: each fires exactly once, unwaived.
# --------------------------------------------------------------------------

class TestLintFixtures:
    @pytest.mark.parametrize("filename,rule", [
        ("bad_r001.py", "R001"),
        ("bad_r002.py", "R002"),
        ("bad_r003_store.py", "R003"),
        ("bad_r004_manifest.py", "R004"),
    ])
    def test_fixture_fires_exactly_once(self, filename, rule):
        path = FIXTURES / filename
        findings = lint_source(path.read_text(encoding="utf-8"),
                               f"tests/fixtures/analysis/{filename}")
        assert [f.rule for f in findings] == [rule]
        assert not findings[0].waived
        assert findings[0].line > 0

    def test_fixture_directory_totals(self):
        doc = findings_to_doc(lint_paths([FIXTURES], base=REPO_ROOT))
        assert doc["analysis_version"] == 1
        assert doc["by_rule"] == {"R001": 1, "R002": 1,
                                  "R003": 1, "R004": 1}
        assert doc["total"] == doc["unwaived"] == 4
        assert doc["waived"] == 0
        # Findings carry repo-relative posix paths.
        paths = {f["path"] for f in doc["findings"]}
        assert all(p.startswith("tests/fixtures/analysis/") for p in paths)

    def test_r002_locked_write_does_not_fire(self):
        source = (FIXTURES / "bad_r002.py").read_text(encoding="utf-8")
        (finding,) = lint_source(source, "counter.py")
        # The one finding is the unlocked write in racy_increment, not
        # the locked one and not the __init__ assignment.
        assert "racy" not in finding.message  # message names attr + lock
        assert finding.line > source.splitlines().index(
            "    def racy_increment(self):") + 1 - 1

    def test_parse_failure_is_a_finding(self):
        (finding,) = lint_source("def broken(:\n", "oops.py")
        assert finding.rule == "parse"
        assert "does not parse" in finding.message


class TestWaivers:
    def test_same_line_waiver(self):
        source = ("def resolve(policy, fallback):\n"
                  "    return policy or fallback"
                  "  # analysis: waive R001 -- legacy shim\n")
        (finding,) = lint_source(source, "x.py")
        assert finding.rule == "R001"
        assert finding.waived
        assert finding.waiver_reason == "legacy shim"

    def test_own_line_waiver_covers_next_code_line(self):
        source = ("def resolve(policy, fallback):\n"
                  "    # analysis: waive R001 -- documented fallback\n"
                  "    return policy or fallback\n")
        (finding,) = lint_source(source, "x.py")
        assert finding.waived
        assert finding.waiver_reason == "documented fallback"

    def test_waiver_for_other_rule_does_not_apply(self):
        source = ("def resolve(policy, fallback):\n"
                  "    return policy or fallback"
                  "  # analysis: waive R002 -- wrong rule\n")
        (finding,) = lint_source(source, "x.py")
        assert not finding.waived


class TestPathScoping:
    CLOCKY = "import time\n\ndef stamp():\n    return time.time()\n"
    SWALLOW = ("class PlanStoreError(Exception):\n    pass\n\n"
               "def f(p):\n    try:\n        return p.read()\n"
               "    except PlanStoreError:\n        pass\n")

    def test_r004_only_on_scoped_paths(self):
        assert [f.rule for f in lint_source(
            self.CLOCKY, "src/repro/observability/manifest.py")] == ["R004"]
        assert lint_source(self.CLOCKY, "src/repro/core/tree.py") == []

    def test_r003_only_on_scoped_paths(self):
        assert [f.rule for f in lint_source(
            self.SWALLOW, "src/repro/api/store.py")] == ["R003"]
        assert lint_source(self.SWALLOW, "src/repro/core/tree.py") == []


class TestShippedTreeClean:
    def test_src_repro_has_no_unwaived_findings(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"], base=REPO_ROOT)
        unwaived = [f for f in findings if not f.waived]
        assert unwaived == [], "\n".join(f.format() for f in unwaived)
        # The tree does carry *waived* findings — wall-clock reads
        # (profiling and store mtimes legitimately sample clocks) and
        # one quota-refund write whose callers all hold the lock — so
        # the waiver machinery is live, not vacuous.
        waived = [f for f in findings if f.waived]
        assert waived and all(f.rule in ("R002", "R004") for f in waived)
        assert any(f.rule == "R004" for f in waived)
        assert all(f.waiver_reason for f in waived)


# --------------------------------------------------------------------------
# Write-set verifier: legit artifacts prove, doctored ones degrade.
# --------------------------------------------------------------------------

class TestWritesetVerifier:
    def test_real_artifact_verifies(self, artifact):
        assert verify_artifact(artifact) is None
        assert analysis_counters()["writeset_verified"] == 1
        assert analysis_counters()["writeset_rejected"] == 0

    def test_overlapping_near_panels_rejected(self, artifact):
        with pytest.raises(AnalysisError, match="single-writer"):
            verify_artifact(_overlap_near(artifact))
        assert analysis_counters()["writeset_rejected"] == 1

    def test_negative_index_rejected(self, artifact):
        gidx = np.asarray(artifact.tables["near_gidx"]).copy()
        assert gidx.size
        gidx[0] = -1
        with pytest.raises(AnalysisError, match="negative index"):
            verify_artifact(_doctored(artifact, near_gidx=gidx))

    def test_out_of_bounds_interval_rejected(self, artifact):
        ns = np.asarray(artifact.tables["near_specs"]).copy()
        ns[0, 3] = int(artifact.meta["dim"])  # si past the last Y row
        with pytest.raises(AnalysisError, match="outside"):
            verify_artifact(_doctored(artifact, near_specs=ns))

    def test_duplicate_ownership_rejected(self, artifact):
        own = np.asarray(artifact.tables["up_own"]).copy()
        assert own.size >= 2
        own[1] = own[0]
        with pytest.raises(AnalysisError, match="ownership"):
            verify_artifact(_doctored(artifact, up_own=own))

    @pytest.mark.parametrize("source,match", [
        ("import os\n", "one function definition"),
        ("def hmatmul_compiled(W, Y, T, S):\n    print(W)\n",
         "only"),
        ("def wrong_name(W, Y, T, S):\n    return Y\n", "named"),
        ("def hmatmul_compiled(W, Y, T, S):\n"
         "    _scatter_add(W, [0], [0])\n", "may only touch"),
        ("def hmatmul_compiled(W, Y, T, S):\n"
         "    x = [i for i in range(3)]\n", "disallowed"),
    ])
    def test_source_discipline(self, artifact, source, match):
        with pytest.raises(AnalysisError, match=match):
            verify_artifact(_doctored(artifact, source=source))

    def test_meta_without_dims_rejected(self, artifact):
        meta = {k: v for k, v in artifact.meta.items() if k != "dim"}
        bad = CompiledArtifact(meta=meta, source=artifact.source,
                               tables=artifact.tables)
        with pytest.raises(AnalysisError, match="dim/rank_rows"):
            verify_artifact(bad)

    def test_verify_artifact_file(self, artifact, tmp_path):
        good = tmp_path / "good.npz"
        save_compiled_artifact(artifact, good)
        assert verify_artifact_file(good) is None
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not an npz")
        with pytest.raises(AnalysisError, match="rejected"):
            verify_artifact_file(garbage)


class TestDoctoredArtifactServing:
    def test_doctored_store_artifact_degrades_to_batched(self, H, W,
                                                         artifact,
                                                         tmp_path):
        store = PlanStore(tmp_path)
        cache = CompiledCache(store=store)
        Hf = fresh(H)
        store.put("compiled", cache.key(hmatrix_fingerprint(Hf)),
                  _overlap_near(artifact))
        store.clear_memory()
        reset_analysis_counters()

        # Rejected before execution: typed fallback, no exception, no
        # rebuild masking the event.
        assert cache.evaluator_for(Hf) is None
        assert cache.stats.fallbacks == {"writeset_violation": 1}
        assert cache.stats.builds == 0
        assert analysis_counters()["writeset_rejected"] == 1
        # ...and serving degrades to the batched bytes.
        assert _bytes(Hf.matmul(W, order="compiled")) == \
            _bytes(Hf.matmul(W, order="batched"))

    def test_clean_store_artifact_is_verified_then_served(self, H, W,
                                                          artifact,
                                                          tmp_path):
        store = PlanStore(tmp_path)
        cache = CompiledCache(store=store)
        Hf = fresh(H)
        store.put("compiled", cache.key(hmatrix_fingerprint(Hf)), artifact)
        store.clear_memory()
        reset_analysis_counters()

        assert cache.evaluator_for(Hf) is not None
        assert cache.stats.store_hits == 1
        assert cache.stats.fallbacks == {}
        assert analysis_counters()["writeset_verified"] == 1

    def test_fresh_builds_are_verified_too(self, H):
        cache = CompiledCache()
        reset_analysis_counters()
        assert cache.evaluator_for(fresh(H)) is not None
        assert cache.stats.builds == 1
        assert analysis_counters()["writeset_verified"] == 1


# --------------------------------------------------------------------------
# Counters and observability wiring.
# --------------------------------------------------------------------------

class TestCounters:
    def test_bump_and_snapshot(self):
        bump_analysis_counter("lint_findings", 3)
        bump_analysis_counter("lint_findings")
        snap = analysis_counters()
        assert snap["lint_findings"] == 4
        snap["lint_findings"] = 0  # a copy, not the live dict
        assert analysis_counters()["lint_findings"] == 4

    def test_unknown_counter_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown analysis counter"):
            bump_analysis_counter("writset_verified")

    def test_reset(self):
        bump_analysis_counter("sync_certified")
        reset_analysis_counters()
        assert set(analysis_counters().values()) == {0}

    def test_collect_stats_exposes_analysis_section(self):
        from repro.observability.stats import collect_stats

        bump_analysis_counter("writeset_verified")
        section = collect_stats()["analysis"]
        assert section["writeset_verified"] == 1
        assert {"writeset_rejected", "sync_certified", "sync_flagged",
                "lint_findings"} <= set(section)


# --------------------------------------------------------------------------
# CLI: `repro analyze` exit codes and findings JSON.
# --------------------------------------------------------------------------

class TestAnalyzeCLI:
    def test_clean_tree_strict_exits_zero(self, capsys):
        assert cli_main(["analyze", "--strict",
                         str(REPO_ROOT / "src" / "repro")]) == 0
        out = capsys.readouterr().out
        assert "0 unwaived" in out

    def test_fixtures_fail_strict_and_write_json(self, tmp_path, capsys):
        out_json = tmp_path / "findings.json"
        assert cli_main(["analyze", "--strict", "--json", str(out_json),
                         str(FIXTURES)]) == 1
        doc = json.loads(out_json.read_text())
        assert doc["unwaived"] == 4
        assert doc["by_rule"] == {"R001": 1, "R002": 1,
                                  "R003": 1, "R004": 1}
        err = capsys.readouterr().err
        assert "strict mode: 4 failure(s)" in err

    def test_fixtures_without_strict_exit_zero(self, capsys):
        assert cli_main(["analyze", str(FIXTURES)]) == 0
        assert "4 unwaived" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert cli_main(["analyze", "/no/such/tree.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_artifact_verification(self, artifact, tmp_path, capsys):
        good = tmp_path / "good.npz"
        save_compiled_artifact(artifact, good)
        assert cli_main(["analyze", "--strict", "--artifact", str(good),
                         str(REPO_ROOT / "src" / "repro")]) == 0
        assert "write sets verified" in capsys.readouterr().out

        bad = tmp_path / "bad.npz"
        save_compiled_artifact(_overlap_near(artifact), bad)
        assert cli_main(["analyze", "--strict", "--artifact", str(bad),
                         str(REPO_ROOT / "src" / "repro")]) == 1
        assert "single-writer" in capsys.readouterr().err

    def test_json_doc_records_extras(self, artifact, tmp_path):
        npz = tmp_path / "art.npz"
        save_compiled_artifact(artifact, npz)
        out_json = tmp_path / "doc.json"
        assert cli_main(["analyze", "--json", str(out_json),
                         "--artifact", str(npz),
                         str(FIXTURES / "bad_r001.py")]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["artifact"]["verified"] is True
        assert doc["unwaived"] == 1


def test_finding_format_is_clickable():
    f = Finding(rule="R001", path="src/repro/x.py", line=3, col=4,
                message="policy coalesced")
    assert f.format() == "src/repro/x.py:3:4: R001 policy coalesced"
    f.waived, f.waiver_reason = True, "because"
    assert f.format().endswith("[waived: because]")
