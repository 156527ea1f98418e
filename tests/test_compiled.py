"""Compiled kernel tier: bit-identity, fallbacks, store round-trips.

The acceptance bar for the fused frozen-table driver, which the default
``order="batched"`` runs for panels of at most ``NARROW_Q_MAX`` columns:
byte-identical to the row-panel evaluator across the equivalence matrix
({float32, float64} x {single panel, matmul_many, chunked multi-RHS} x
{serial, KernelService micro-batching}), with ``order="compiled"`` a
spelling of the same path; typed degradation (host mismatch, missing
numba, version skew — a counter, never an exception); a compiled-tier
artifact that quarantines on tamper and rebuilds exactly once; and
workspaces that concurrent callers never share.
"""

from __future__ import annotations

import importlib.machinery
import json
import sys
import threading
import types
from dataclasses import replace

import numpy as np
import pytest

from repro import KernelService, PlanConfig, PlanStore, Session
from repro.api.policy import ExecutionPolicy
from repro.api.store import registered_tiers
from repro.codegen import compiled as C
from repro.codegen.compiled import (
    COMPILED_FORMAT_VERSION,
    NARROW_Q_MAX,
    CompiledArtifact,
    CompiledCache,
    available_backends,
    compile_evaluator,
    load_compiled_artifact,
    reset_default_compiled_cache,
    save_compiled_artifact,
)
from repro.core.executor import matmul_many
from repro.core.io import PlanStoreError
from repro.host import host_key, host_signature
from repro.tuning import Autotuner, autotune_backends
from repro.tuning.profile import hmatrix_fingerprint

PLAN = PlanConfig(leaf_size=32, bacc=1e-6, p=4, seed=0)


@pytest.fixture(autouse=True)
def _isolate_default_cache():
    reset_default_compiled_cache()
    yield
    reset_default_compiled_cache()


def fresh(H):
    """A copy of ``H`` with no attached evaluators (same content, so the
    same fingerprint) — keeps per-test counters honest and the shared
    session fixture unmutated."""
    return replace(H, _batched=None, _batched_built=False,
                   _compiled=None, _compiled_built=False)


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def row_panel(H, W, q_chunk=None):
    """``H @ W`` through the row-panel evaluator called directly (the
    driver every width ran on before narrow panels went fused)."""
    ev = H.batched_evaluator
    if q_chunk is not None:
        ev = replace(ev, q_chunk=q_chunk)
    perm = H.tree.perm
    Yt = ev(np.ascontiguousarray(W, dtype=np.float64)[perm])
    Y = np.empty_like(Yt)
    Y[perm] = Yt
    return Y


#: Widths around the narrow/wide boundary, plus the widths the
#: equivalence matrix has always swept.
EDGE_Q = sorted({1, 3, NARROW_Q_MAX, NARROW_Q_MAX + 1, 8, 9, 40})


# --------------------------------------------------------------------------
# Equivalence matrix: the default order is byte-identical to the row-panel
# evaluator at every width, and "compiled" is a spelling of it.
# --------------------------------------------------------------------------

class TestEquivalenceMatrix:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("q", [None, *EDGE_Q])
    def test_single_panel(self, hmatrix_2d, dtype, q):
        """One panel per dtype, narrow and wide (wide exercises the
        row-panel path)."""
        H = fresh(hmatrix_2d)
        g = np.random.default_rng(5)
        shape = (H.dim,) if q is None else (H.dim, q)
        W = (g.random(shape) * 2 - 1).astype(dtype)
        Yr = row_panel(H, W)
        Yd = H.matmul(W)
        Yc = H.matmul(W, order="compiled")
        assert Yd.shape == Yc.shape == Yr.shape
        assert _bytes(Yd) == _bytes(Yr)
        assert _bytes(Yc) == _bytes(Yr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_many_stream(self, hmatrix_2d, dtype):
        H = fresh(hmatrix_2d)
        g = np.random.default_rng(6)
        panels = [g.random((H.dim, q)).astype(dtype) for q in (1, 4, 2, 5)]
        Yd = matmul_many(H, panels)
        Yc = matmul_many(H, panels, order="compiled")
        for w, yd, yc in zip(panels, Yd, Yc, strict=True):
            assert _bytes(yd) == _bytes(row_panel(H, w))
            assert _bytes(yc) == _bytes(yd)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_multi_rhs(self, hmatrix_2d, dtype):
        """An explicit q_chunk is honored exactly: a wide panel streams
        through the row-panel evaluator in that chunk, and so does a
        narrow panel wider than the chunk (the fused driver runs one
        pass only)."""
        H = fresh(hmatrix_2d)
        g = np.random.default_rng(7)
        for q, chunk in ((40, 16), (3, 2)):
            W = g.random((H.dim, q)).astype(dtype)
            want = _bytes(row_panel(H, W, q_chunk=chunk))
            assert _bytes(H.matmul(W, q_chunk=chunk)) == want
            assert _bytes(H.matmul(W, order="compiled", q_chunk=chunk)) == want

    def test_via_kernelservice_microbatching(self, points_2d,
                                             gaussian_kernel):
        """Micro-batched serving: same merged panels, same bytes.

        max_batch equals the number of submissions and the linger is
        generous, so both services deterministically merge all requests
        into one stacked matmul (asserted via max_batch_observed), whose
        columns are the row-panel evaluator's on the merged panel.
        """
        g = np.random.default_rng(8)
        panels = [g.random((len(points_2d), q)) for q in (1, 2, 1)]

        def serve(order):
            with KernelService(plan=PLAN,
                               policy=ExecutionPolicy(order=order),
                               max_batch=len(panels),
                               max_wait_ms=2000.0) as svc:
                svc.register("grid", points_2d, kernel=gaussian_kernel,
                             warm=True)
                futs = [svc.submit("grid", W) for W in panels]
                out = [f.result(30) for f in futs]
                assert svc.stats()["max_batch_observed"] == len(panels)
            return out

        with Session(plan=PLAN) as session:
            H = session.inspect(points_2d, kernel=gaussian_kernel)
        merged = row_panel(H, np.hstack(panels))
        want = np.split(merged, np.cumsum([w.shape[1] for w in panels])[:-1],
                        axis=1)
        for yr, yb, yc in zip(want, serve("batched"), serve("compiled"),
                              strict=True):
            assert _bytes(yb) == _bytes(yr)
            assert _bytes(yc) == _bytes(yr)

    def test_delegation_threshold(self, hmatrix_2d):
        """Panels wider than NARROW_Q_MAX run through the batched
        evaluator (counter-checked), narrower ones through the fused
        driver — both byte-identical (covered above)."""
        H = fresh(hmatrix_2d)
        ev = compile_evaluator(H)
        g = np.random.default_rng(9)
        perm = H.tree.perm
        ev(g.random((H.dim, NARROW_Q_MAX))[perm])
        assert ev._rt.calls == 1
        ev(g.random((H.dim, NARROW_Q_MAX + 1))[perm])
        assert ev._rt.calls == 1  # wide panel delegated


# --------------------------------------------------------------------------
# Artifact codec: round-trip + fail-closed decode.
# --------------------------------------------------------------------------

class TestArtifactCodec:
    def test_roundtrip(self, hmatrix_2d, tmp_path):
        H = fresh(hmatrix_2d)
        ev = compile_evaluator(H)
        path = tmp_path / "art.npz"
        save_compiled_artifact(ev.artifact, path)
        art = load_compiled_artifact(path)
        assert art.meta == json.loads(json.dumps(ev.artifact.meta))
        assert art.source == ev.artifact.source
        for name, table in ev.artifact.tables.items():
            np.testing.assert_array_equal(art.tables[name], table)

    def test_rehydrated_artifact_is_byte_identical(self, hmatrix_2d,
                                                   tmp_path):
        H = fresh(hmatrix_2d)
        ev = compile_evaluator(H)
        path = tmp_path / "art.npz"
        save_compiled_artifact(ev.artifact, path)
        ev2 = C.evaluator_from_artifact(load_compiled_artifact(path), H)
        W = np.random.default_rng(0).random((H.dim, 2))
        perm = H.tree.perm
        assert _bytes(ev2(W[perm])) == _bytes(ev(W[perm]))

    def test_garbage_bytes_fail_closed(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an npz payload")
        with pytest.raises(PlanStoreError, match="unreadable|truncated"):
            load_compiled_artifact(path)

    def test_missing_fields_fail_closed(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, meta=np.array("{}"), source=np.array("x"))
        with pytest.raises(PlanStoreError, match="missing field"):
            load_compiled_artifact(path)

    def test_inconsistent_tables_fail_closed(self, hmatrix_2d, tmp_path):
        """Valid npz whose spec rows disagree with the arena: the
        structural validator must refuse it (indexing from such a plan
        would read garbage mid-evaluation)."""
        H = fresh(hmatrix_2d)
        art = compile_evaluator(H).artifact
        bad_tables = dict(art.tables)
        bad_tables["near_arena"] = art.tables["near_arena"][:-7]
        path = tmp_path / "bad.npz"
        save_compiled_artifact(
            CompiledArtifact(art.meta, art.source, bad_tables), path)
        with pytest.raises(PlanStoreError, match="inconsistent"):
            load_compiled_artifact(path)

    def test_registered_as_store_tier(self):
        assert "compiled" in registered_tiers()


# --------------------------------------------------------------------------
# Typed fallbacks: degradation is a counter, never an exception.
# --------------------------------------------------------------------------

def _put_doctored(store, cache, H, **meta_overrides):
    """Persist this host's artifact with doctored meta under the live
    key (the stored-artifact-from-elsewhere scenarios)."""
    art = compile_evaluator(H).artifact
    bad = CompiledArtifact(meta={**art.meta, **meta_overrides},
                           source=art.source, tables=art.tables)
    store.put("compiled", cache.key(hmatrix_fingerprint(H)), bad)
    store.clear_memory()


class TestTypedFallbacks:
    @pytest.mark.parametrize("doctor,reason", [
        ({"host": {"cpus": 999, "blas": "other", "machine": "elsewhere"}},
         "host_mismatch"),
        ({"backend": "numba"}, "numba_missing"),
        ({"format_version": 999}, "version_skew"),
        ({"fingerprint": "deadbeefdeadbeef"}, "fingerprint_mismatch"),
    ])
    def test_unusable_stored_artifact_degrades(self, hmatrix_2d, tmp_path,
                                               monkeypatch, doctor, reason):
        if reason == "numba_missing":
            monkeypatch.delitem(sys.modules, "numba", raising=False)
            monkeypatch.setenv("MATROX_COMPILED_BACKEND", "numpy-fused")
        store = PlanStore(tmp_path)
        cache = CompiledCache(store=store)
        _put_doctored(store, cache, fresh(hmatrix_2d), **doctor)

        H = fresh(hmatrix_2d)
        assert cache.evaluator_for(H) is None
        assert cache.stats.fallbacks == {reason: 1}
        assert cache.stats.builds == 0
        # ...and evaluation degrades to the batched bytes, no exception.
        W = np.random.default_rng(1).random((H.dim, 2))
        assert _bytes(H.matmul(W, order="compiled")) == \
            _bytes(H.matmul(W, order="batched"))

    def test_no_batched_lowering_degrades(self, hmatrix_2d):
        H = fresh(hmatrix_2d)
        rejected = replace(H.evaluator.decision, batch=False)
        H = replace(H, evaluator=replace(H.evaluator, decision=rejected))
        cache = CompiledCache()
        assert cache.evaluator_for(H) is None
        assert cache.stats.fallbacks == {"no_batched_lowering": 1}
        W = np.random.default_rng(2).random((H.dim, 3))
        assert _bytes(H.matmul(W, order="compiled")) == \
            _bytes(H.matmul(W, order="original"))
        assert _bytes(H.matmul(W)) == _bytes(H.matmul(W, order="original"))

    def test_tamper_quarantines_and_rebuilds_exactly_once(self, hmatrix_2d,
                                                          tmp_path):
        store = PlanStore(tmp_path)
        cold = CompiledCache(store=store)
        cold.evaluator_for(fresh(hmatrix_2d))
        assert cold.stats.builds == 1 and cold.stats.store_puts == 1

        for manifest in tmp_path.glob("*.json"):
            if json.loads(manifest.read_text())["tier"] != "compiled":
                continue
            payload = manifest.with_suffix(".npz")
            data = bytearray(payload.read_bytes())
            data[len(data) // 2] ^= 0xFF
            payload.write_bytes(bytes(data))

        tampered = PlanStore(tmp_path)
        warm = CompiledCache(store=tampered)
        H = fresh(hmatrix_2d)
        assert warm.evaluator_for(H) is not None
        assert warm.stats.fallbacks == {"store_corrupt": 1}
        assert warm.stats.builds == 1        # rebuilt exactly once...
        assert warm.stats.store_puts == 1    # ...and re-persisted
        assert tampered.stats.quarantined >= 1
        assert warm.evaluator_for(H) is not None
        assert warm.stats.builds == 1        # memory hit, no second build

        healed = CompiledCache(store=PlanStore(tmp_path))
        assert healed.evaluator_for(fresh(hmatrix_2d)) is not None
        assert healed.stats.builds == 0      # clean store hit again
        assert healed.stats.store_hits == 1

    def test_truncation_quarantines_and_rebuilds(self, hmatrix_2d,
                                                 tmp_path):
        store = PlanStore(tmp_path)
        CompiledCache(store=store).evaluator_for(fresh(hmatrix_2d))
        for manifest in tmp_path.glob("*.json"):
            if json.loads(manifest.read_text())["tier"] == "compiled":
                payload = manifest.with_suffix(".npz")
                payload.write_bytes(payload.read_bytes()[:64])
        warm = CompiledCache(store=PlanStore(tmp_path))
        assert warm.evaluator_for(fresh(hmatrix_2d)) is not None
        assert warm.stats.fallbacks == {"store_corrupt": 1}
        assert warm.stats.builds == 1


# --------------------------------------------------------------------------
# Numba backend (faked: the container has no numba; CI has a real leg).
# --------------------------------------------------------------------------

@pytest.fixture()
def fake_numba(monkeypatch):
    """An importable stand-in whose ``njit`` is an identity decorator —
    the jitted gather/scatter loops run as plain Python, so results are
    exact and the backend-selection/serialization path is fully
    exercised without the real dependency."""
    mod = types.ModuleType("numba")
    mod.__spec__ = importlib.machinery.ModuleSpec("numba", None)

    def njit(fn=None, **_kwargs):
        return fn if fn is not None else (lambda f: f)

    mod.njit = njit
    monkeypatch.setitem(sys.modules, "numba", mod)
    monkeypatch.setattr(C, "_numba_impls_cache", None)
    yield mod
    monkeypatch.setattr(C, "_numba_impls_cache", None)


class TestNumbaBackend:
    def test_probe_with_and_without(self, fake_numba, monkeypatch):
        assert set(available_backends()) == {"numpy-fused", "numba"}
        assert C.select_backend() == "numba"  # preferred when importable
        monkeypatch.setenv("MATROX_COMPILED_BACKEND", "numpy-fused")
        assert available_backends() == ("numpy-fused",)

    def test_numba_backend_is_byte_identical(self, hmatrix_2d, fake_numba,
                                             monkeypatch):
        monkeypatch.setenv("MATROX_COMPILED_BACKEND", "numba")
        H = fresh(hmatrix_2d)
        ev = compile_evaluator(H)
        assert ev.backend == "numba"
        g = np.random.default_rng(4)
        for shape in [(H.dim,), (H.dim, 3), (H.dim, NARROW_Q_MAX)]:
            W = g.random(shape)
            assert _bytes(H.matmul(W, order="compiled")) == \
                _bytes(H.matmul(W, order="batched"))


# --------------------------------------------------------------------------
# Warm start: zero recompiles, zero re-tunes (counter-asserted).
# --------------------------------------------------------------------------

class TestWarmStart:
    def test_session_restart_zero_recompiles(self, points_2d,
                                             gaussian_kernel, tmp_path):
        pol = ExecutionPolicy(order="compiled")
        W = np.random.default_rng(0).random((len(points_2d), 2))
        with Session(plan=PLAN, policy=pol,
                     store=PlanStore(tmp_path)) as cold:
            Yc = cold.matmul(cold.inspect(points_2d,
                                          kernel=gaussian_kernel), W)
            info = cold.cache_info()
            assert info["compiled"]["builds"] == 1
            assert info["compiled"]["store_puts"] == 1

        with Session(plan=PLAN, policy=pol,
                     store=PlanStore(tmp_path)) as warm:
            Yw = warm.matmul(warm.inspect(points_2d,
                                          kernel=gaussian_kernel), W)
            info = warm.cache_info()
        assert info["compiled"]["builds"] == 0      # zero recompiles
        assert info["compiled"]["store_hits"] == 1
        assert info["p1_builds"] == 0 and info["p2_builds"] == 0
        assert _bytes(Yw) == _bytes(Yc)

    def test_auto_session_restart_zero_retunes_and_recompiles(
            self, points_2d, gaussian_kernel, tmp_path):
        """order="auto" over a warm store: the profile AND any compiled
        artifact it produced replay without one trial or rebuild."""
        pol = ExecutionPolicy(order="auto")
        W = np.random.default_rng(1).random((len(points_2d), 2))
        with Session(plan=PLAN, policy=pol,
                     store=PlanStore(tmp_path)) as cold:
            cold.matmul(cold.inspect(points_2d, kernel=gaussian_kernel), W)
            assert cold.cache_info()["autotune"]["tunes"] == 1

        with Session(plan=PLAN, policy=pol,
                     store=PlanStore(tmp_path)) as warm:
            warm.matmul(warm.inspect(points_2d, kernel=gaussian_kernel), W)
            info = warm.cache_info()
        assert info["autotune"]["tunes"] == 0       # zero re-tunes
        assert info["compiled"].get("builds", 0) == 0  # zero recompiles


# --------------------------------------------------------------------------
# One host signature, two tiers: a change invalidates both.
# --------------------------------------------------------------------------

class TestHostSignature:
    def test_signature_change_invalidates_both_tiers(self, hmatrix_2d,
                                                     tmp_path, monkeypatch):
        store = PlanStore(tmp_path)
        h1 = host_signature()
        tuner1 = Autotuner(store=store, reps=1, trial_cols=2, host=h1)
        tuner1.profile_for(fresh(hmatrix_2d), 4,
                           ExecutionPolicy(order="auto"))
        cache1 = CompiledCache(store=store, host=h1)
        cache1.evaluator_for(fresh(hmatrix_2d))
        assert tuner1.stats.tunes == 1 and cache1.stats.builds == 1

        # The same store on a like host: both tiers replay.
        store.clear_memory()
        tuner2 = Autotuner(store=store, reps=1, trial_cols=2, host=h1)
        tuner2.profile_for(fresh(hmatrix_2d), 4,
                           ExecutionPolicy(order="auto"))
        cache2 = CompiledCache(store=store, host=h1)
        cache2.evaluator_for(fresh(hmatrix_2d))
        assert tuner2.stats.tunes == 0 and tuner2.stats.store_hits == 1
        assert cache2.stats.builds == 0 and cache2.stats.store_hits == 1

        # The signature moves (new BLAS vendor): BOTH tiers miss — a
        # disagreement here would replay one tier against the wrong host.
        monkeypatch.setattr("repro.host._blas_vendor", lambda: "other-blas")
        h2 = host_signature()
        assert host_key(h2) != host_key(h1)
        tuner3 = Autotuner(store=store, reps=1, trial_cols=2, host=h2)
        tuner3.profile_for(fresh(hmatrix_2d), 4,
                           ExecutionPolicy(order="auto"))
        cache3 = CompiledCache(store=store, host=h2)
        cache3.evaluator_for(fresh(hmatrix_2d))
        assert tuner3.stats.tunes == 1 and tuner3.stats.store_hits == 0
        assert cache3.stats.builds == 1 and cache3.stats.store_hits == 0


# --------------------------------------------------------------------------
# Autotune registry: {original, batched, process} from one source of
# truth. "compiled" is no candidate: it is the same program as "batched".
# --------------------------------------------------------------------------

class TestAutotuneRegistry:
    def test_backends_enumerate_without_compiled(self):
        names = {b.name for b in autotune_backends()}
        assert names >= {"batched", "original", "process"}
        assert "compiled" not in names

    def test_no_compiled_candidate_at_any_width(self, hmatrix_2d):
        tuner = Autotuner(reps=1, trial_cols=2)
        H = fresh(hmatrix_2d)
        for q in (1, 2, NARROW_Q_MAX, 512):
            orders = {c.get("order") for c in tuner.candidate_policies(H, q)}
            assert "compiled" not in orders
            assert "batched" in orders

    def test_stats_report_registry(self, hmatrix_2d):
        tuner = Autotuner(reps=1, trial_cols=2)
        tuner.tune(fresh(hmatrix_2d), 2, ExecutionPolicy(order="auto"),
                   force=True)
        stats = tuner.stats_dict()
        assert set(stats["backends"]) >= {"batched", "original", "process"}
        assert "compiled" not in stats["backends"]

    def test_auto_stays_bit_identical(self, hmatrix_2d):
        """A measured tune at a narrow width ranks no compiled candidate,
        and resolving auto adds zero perturbation."""
        tuner = Autotuner(reps=1, trial_cols=2)
        H = fresh(hmatrix_2d)
        prof = tuner.tune(H, 2, ExecutionPolicy(order="auto"), force=True)
        assert {"order": "compiled"} not in [c["policy"]
                                             for c in prof.candidates]
        W = np.random.default_rng(3).random((H.dim, 2))
        pol = prof.best_policy()
        assert _bytes(H.matmul(W, policy=pol)) == \
            _bytes(H.matmul(W, order=pol.order))

    def test_stored_compiled_profile_still_resolves(self, hmatrix_2d):
        """A profile persisted when "compiled" was a candidate replays
        as the default order."""
        pol = ExecutionPolicy(order="compiled")
        assert pol == ExecutionPolicy()
        H = fresh(hmatrix_2d)
        W = np.random.default_rng(4).random((H.dim, 1))
        assert _bytes(H.matmul(W, policy=pol)) == _bytes(row_panel(H, W))


# --------------------------------------------------------------------------
# Width routing: each driver's tables are built by the first product that
# needs them, and by no other.
# --------------------------------------------------------------------------

def _store_tiers(directory):
    return {json.loads(m.read_text())["tier"]
            for m in directory.glob("*.json")}


class TestWidthRouting:
    def test_wide_only_session_never_compiles(self, points_2d,
                                              gaussian_kernel, tmp_path):
        """Q=512 products run the row-panel evaluator: no fused artifact
        is derived, verified or persisted."""
        W = np.random.default_rng(20).random((len(points_2d), 512))
        with Session(plan=PLAN, store=PlanStore(tmp_path)) as s:
            H = s.inspect(points_2d, kernel=gaussian_kernel)
            Y = s.matmul(H, W)
            s.matmul(H, W)
            info = s.cache_info()["compiled"]
        assert info.get("builds", 0) == 0
        assert info.get("store_puts", 0) == 0
        assert not H._compiled_built
        assert "compiled" not in _store_tiers(tmp_path)
        assert _bytes(Y) == _bytes(row_panel(H, W))

    def test_narrow_only_session_never_builds_row_panels(
            self, points_2d, gaussian_kernel, tmp_path):
        g = np.random.default_rng(21)
        with Session(plan=PLAN, store=PlanStore(tmp_path)) as s:
            H = s.inspect(points_2d, kernel=gaussian_kernel)
            Ys = [(w, s.matmul(H, w)) for w in
                  (g.random(H.dim), g.random((H.dim, NARROW_Q_MAX)))]
            info = s.cache_info()["compiled"]
        assert not H._batched_built
        assert info["builds"] == 1 and info["store_puts"] == 1
        assert "compiled" in _store_tiers(tmp_path)
        for w, y in Ys:
            assert _bytes(y) == _bytes(row_panel(H, w))

    def test_degraded_fused_driver_counts_and_runs_row_panels(
            self, hmatrix_2d, tmp_path):
        """A store artifact for another host: the narrow product runs the
        row-panel evaluator and the cache records why."""
        store = PlanStore(tmp_path)
        cache = CompiledCache(store=store)
        _put_doctored(store, cache, fresh(hmatrix_2d),
                      host={"cpus": 999, "blas": "x", "machine": "y"})
        H = fresh(hmatrix_2d)
        W = np.random.default_rng(22).random((H.dim, 1))
        Y = H.matmul(W, compiled_cache=cache)
        assert cache.stats.fallbacks == {"host_mismatch": 1}
        assert H._batched_built
        assert _bytes(Y) == _bytes(row_panel(H, W))


# --------------------------------------------------------------------------
# Concurrent callers: workspaces are checked out, never shared.
# --------------------------------------------------------------------------

class TestConcurrentCallers:
    THREADS = 4
    CALLS = 60

    @pytest.mark.parametrize("q", range(1, NARROW_Q_MAX + 1))
    def test_threads_at_one_width_match_serial(self, hmatrix_2d, q):
        H = fresh(hmatrix_2d)
        g = np.random.default_rng(30 + q)
        panels = [g.random((H.dim, q)) for _ in range(self.THREADS)]
        want = [_bytes(H.matmul(w, order="compiled")) for w in panels]
        start = threading.Barrier(self.THREADS)
        errors, wrong = [], []

        def worker(i):
            try:
                start.wait()
                for _ in range(self.CALLS):
                    if _bytes(H.matmul(panels[i], order="compiled")) != \
                            want[i]:
                        wrong.append(i)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert wrong == []
        assert H._compiled is not None and not H._batched_built
