"""Executor coverage: serial vs thread-pool vs batched agreement, streaming
chunks, the batch cost-model gate, and Executor lifecycle semantics."""

import numpy as np
import pytest

from repro import Executor, matmul, matmul_many, relative_error
from repro.codegen import (
    batch_occupancy,
    build_ir,
    decide_lowering,
    generate_batched_evaluator,
    lower_batched,
)
from repro.core.evaluation import evaluate_reference
from repro.runtime.tasks import matrox_batched_phases, matrox_phases


@pytest.fixture(scope="module")
def W_2d(hmatrix_2d):
    return np.random.default_rng(42).random((hmatrix_2d.dim, 8))


class TestOrderAgreement:
    def test_serial_threaded_batched_agree(self, hmatrix_2d, W_2d):
        """The acceptance bar: all three paths within 1e-12 relative."""
        y_serial = hmatrix_2d.matmul(W_2d, order="original")
        y_batched = hmatrix_2d.matmul(W_2d, order="batched")
        with Executor(num_threads=4) as ex:
            y_threaded = ex.matmul(hmatrix_2d, W_2d, order="original")
            y_batched2 = ex.matmul(hmatrix_2d, W_2d, order="batched")
        assert relative_error(y_threaded, y_serial) < 1e-12
        assert relative_error(y_batched, y_serial) < 1e-12
        assert relative_error(y_batched2, y_serial) < 1e-12

    def test_batched_matches_reference_numerics(self, hmatrix_2d, W_2d):
        ev = generate_batched_evaluator(hmatrix_2d.cds)
        ref = evaluate_reference(hmatrix_2d.factors, W_2d)
        np.testing.assert_allclose(ev(W_2d), ref, atol=1e-10)

    def test_q1_vector_and_column(self, hmatrix_2d):
        w = np.random.default_rng(1).random(hmatrix_2d.dim)
        y_serial = hmatrix_2d.matmul(w)
        y_batched = hmatrix_2d.matmul(w, order="batched")
        assert y_batched.shape == (hmatrix_2d.dim,)
        assert relative_error(y_batched, y_serial) < 1e-12
        y_col = hmatrix_2d.matmul(w[:, None], order="batched")
        np.testing.assert_allclose(y_col[:, 0], y_batched, atol=1e-14)

    def test_wide_q_streams_through_chunks(self, hmatrix_2d):
        """Q > 64 exercises the chunked-Q streaming path end to end."""
        W = np.random.default_rng(2).random((hmatrix_2d.dim, 100))
        ev = generate_batched_evaluator(hmatrix_2d.cds, q_chunk=32)
        one_pass = generate_batched_evaluator(hmatrix_2d.cds, q_chunk=None)
        np.testing.assert_allclose(ev(W), one_pass(W), atol=1e-12)
        y_serial = hmatrix_2d.matmul(W)
        assert relative_error(hmatrix_2d.matmul(W, order="batched"),
                              y_serial) < 1e-12

    def test_q_chunk_streaming_is_bit_identical(self, hmatrix_2d):
        """An explicit q_chunk streams through the row-panel evaluator:
        the bytes are that evaluator's chunked pass, and equal solo
        products of each chunk (the 3-wide remainder runs fused)."""
        H = hmatrix_2d
        W = np.random.default_rng(8).random((H.dim, 24))
        y = H.matmul(W, q_chunk=7)
        perm = H.tree.perm
        want = np.empty_like(W)
        want[perm] = generate_batched_evaluator(H.cds, q_chunk=7)(W[perm])
        assert y.tobytes() == want.tobytes()
        solo = np.hstack([H.matmul(np.ascontiguousarray(W[:, c:c + 7]))
                          for c in range(0, 24, 7)])
        assert y.tobytes() == solo.tobytes()

    def test_zero_column_rhs(self, hmatrix_2d):
        y = hmatrix_2d.matmul(np.zeros((hmatrix_2d.dim, 0)), order="batched")
        assert y.shape == (hmatrix_2d.dim, 0)

    def test_uneven_chunk_remainder(self, hmatrix_2d):
        W = np.random.default_rng(3).random((hmatrix_2d.dim, 17))
        ev = generate_batched_evaluator(hmatrix_2d.cds, q_chunk=7)
        np.testing.assert_allclose(
            ev(W), evaluate_reference(hmatrix_2d.factors, W), atol=1e-10)


#: Widths swept against the row-panel evaluator: both sides of
#: NARROW_Q_MAX, one chunk (64), and two streamed chunks (512).
DRIVER_Q = (1, 2, 3, 4, 5, 8, 9, 16, 64, 512)


@pytest.fixture(scope="module", params=["hss", "h2-geometric", "h2-b"])
def structured_h(request, points_2d, gaussian_kernel):
    """One HMatrix per structure; h2-b needs more points (and a looser
    budget) before the cost model accepts batch lowering."""
    from repro.core.inspector import Inspector
    points, extra = points_2d, {}
    if request.param == "h2-b":
        points = np.random.default_rng(7).random((1200, 2))
        extra = {"budget": 0.1}
    return Inspector(structure=request.param, tau=0.65, leaf_size=32,
                     bacc=1e-6, p=4, seed=0, **extra).run(points,
                                                          gaussian_kernel)


class TestDefaultOrderDrivers:
    """The default order picks its driver by panel width; every width
    must give the bytes of the driver every width ran on before: the
    row-panel evaluator, or the per-block code when batch lowering was
    rejected."""

    @pytest.mark.parametrize("q", DRIVER_Q)
    def test_default_order_matches_row_panels(self, structured_h, q):
        H = structured_h
        W = np.random.default_rng(q).random((H.dim, q))
        ref = H.batched_evaluator or H.evaluator
        perm = H.tree.perm
        want = np.empty((H.dim, q))
        want[perm] = ref(W[perm])
        assert H.matmul(W).tobytes() == want.tobytes()
        assert H.matmul(W, order="compiled").tobytes() == want.tobytes()

    def test_sweep_includes_padded_panels(self, hmatrix_2d):
        """hmatrix_2d is the h2-geometric case above; some of its row
        panels are zero-padded over gather holes."""
        from repro.codegen.emit import _near_layout
        assert any(padded for _r, _k, _si, _ei, padded, _b
                   in _near_layout(hmatrix_2d.cds))


class TestMatmulMany:
    def test_wide_array_equals_matmul(self, hmatrix_2d):
        W = np.random.default_rng(4).random((hmatrix_2d.dim, 80))
        got = matmul_many(hmatrix_2d, W, q_chunk=32)
        want = hmatrix_2d.matmul(W, order="batched")
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_narrow_array_single_pass(self, hmatrix_2d):
        W = np.random.default_rng(5).random((hmatrix_2d.dim, 4))
        np.testing.assert_allclose(
            matmul_many(hmatrix_2d, W),
            hmatrix_2d.matmul(W, order="batched"), atol=1e-14)

    def test_panel_stream_returns_list(self, hmatrix_2d):
        rng = np.random.default_rng(6)
        panels = [rng.random((hmatrix_2d.dim, q)) for q in (1, 5, 70)]
        outs = matmul_many(hmatrix_2d, panels, q_chunk=32)
        assert isinstance(outs, list) and len(outs) == 3
        for w, y in zip(panels, outs, strict=True):
            assert relative_error(y, hmatrix_2d.matmul(w)) < 1e-12


class TestBatchGate:
    def test_hss_gate_rejects_and_falls_back(self, points_2d, gaussian_kernel):
        from repro import inspector
        H = inspector(points_2d, kernel=gaussian_kernel, structure="hss",
                      leaf_size=32, bacc=1e-6, seed=0)
        assert not H.evaluator.decision.batch
        assert H.batched_evaluator is None
        W = np.random.default_rng(7).random((H.dim, 3))
        # order="batched" must still work — identical per-block fallback.
        np.testing.assert_array_equal(
            H.matmul(W, order="batched"), H.matmul(W, order="original"))

    def test_h2_gate_accepts(self, hmatrix_2d):
        assert hmatrix_2d.evaluator.decision.batch
        assert hmatrix_2d.batched_evaluator is not None
        assert hmatrix_2d.batched_evaluator is hmatrix_2d.batched_evaluator

    def test_occupancy_and_lowering_annotation(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        ir = build_ir(cds.factors, coarsenset=cds.coarsenset,
                      near_blockset=cds.near_blockset,
                      far_blockset=cds.far_blockset)
        assert batch_occupancy(ir) > 2.0
        d = decide_lowering(ir)
        assert d.batch
        d2 = lower_batched(ir, d)
        assert d2.batch
        for loop in ("near", "upward", "coupling", "downward"):
            assert ir.loop(loop).lowered_to == "batched"

    def test_summary_reports_batch(self, hmatrix_2d):
        assert hmatrix_2d.summary()["lowering"]["batch"] is True

    def test_save_load_preserves_batch_gate(self, hmatrix_2d, tmp_path):
        from repro import load_hmatrix, save_hmatrix
        save_hmatrix(hmatrix_2d, tmp_path / "h.npz")
        H2 = load_hmatrix(tmp_path / "h.npz")
        assert H2.evaluator.decision.batch == hmatrix_2d.evaluator.decision.batch
        W = np.random.default_rng(8).random((H2.dim, 4))
        assert relative_error(H2.matmul(W, order="batched"),
                              hmatrix_2d.matmul(W, order="batched")) < 1e-12


class TestShapeBuckets:
    def test_gather_matches_accessors(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        for bucket in cds.near_buckets():
            stack = bucket.gather(cds.near_buf)
            assert stack.shape == (bucket.batch, *bucket.shape)
            for b, (i, j) in enumerate(bucket.keys):
                np.testing.assert_array_equal(stack[b], cds.near(i, j))

    def test_buckets_cover_all_interactions(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        near_keys = [k for b in cds.near_buckets() for k in b.keys]
        assert sorted(near_keys) == sorted(cds.near_visit_order())
        far_keys = [k for b in cds.far_buckets() for k in b.keys]
        assert sorted(far_keys) == sorted(cds.far_visit_order())

    def test_level_buckets_partition_basis_nodes(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        seen = [v for lvl in cds.basis_level_buckets()
                for b in lvl for v in b.keys]
        assert sorted(seen) == sorted(cds.basis_nodes())
        assert cds.bucket_occupancy() > 0


class TestBatchedPhases:
    def test_flops_match_per_block_schedule(self, hmatrix_2d):
        """The batched schedule performs the same arithmetic."""
        cds = hmatrix_2d.cds
        q = 16
        serial = sum(p.total_flops() for p in matrox_phases(cds, q))
        batched = sum(p.total_flops()
                      for p in matrox_batched_phases(cds, q))
        assert batched == pytest.approx(serial)

    def test_all_phases_are_blas(self, hmatrix_2d):
        for p in matrox_batched_phases(hmatrix_2d.cds, 8):
            assert p.kind == "blas"

    def test_q_chunk_repeats_schedule(self, hmatrix_2d):
        cds = hmatrix_2d.cds
        base = matrox_batched_phases(cds, 16)
        chunked = matrox_batched_phases(cds, 40, q_chunk=16)
        assert len(chunked) == 3 * len(base)
        total = sum(p.total_flops() for p in chunked)
        assert total == pytest.approx(
            sum(p.total_flops() for p in matrox_batched_phases(cds, 40)))

    def test_simulated_batched_rung(self, hmatrix_2d):
        from repro.baselines import MatRoxSystem
        from repro.runtime import HASWELL
        mx = MatRoxSystem(hmatrix_2d)
        bat = mx.simulate(hmatrix_2d.factors, 64, HASWELL, p=4,
                          rung="+batched")
        seq = mx.simulate(hmatrix_2d.factors, 64, HASWELL, p=4,
                          rung="cds-seq")
        assert bat.time_s < seq.time_s


class TestExecutorLifecycle:
    def test_context_manager_closes_pool(self, hmatrix_2d, W_2d):
        ex = Executor(num_threads=3)
        assert ex._pool is not None
        with ex as handle:
            assert handle is ex
            handle.matmul(hmatrix_2d, W_2d)
        assert ex._pool is None

    def test_close_is_idempotent(self):
        ex = Executor(num_threads=2)
        ex.close()
        ex.close()
        assert ex._pool is None

    def test_matmul_after_close_runs_serially(self, hmatrix_2d, W_2d):
        ex = Executor(num_threads=2)
        ex.close()
        np.testing.assert_allclose(
            ex.matmul(hmatrix_2d, W_2d), hmatrix_2d.matmul(W_2d), atol=1e-14)

    def test_serial_executor_has_no_pool(self):
        for nt in (None, 1):
            assert Executor(num_threads=nt)._pool is None

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError, match="num_threads"):
            Executor(num_threads=0)

    def test_module_level_matmul_threaded(self, hmatrix_2d, W_2d):
        y = matmul(hmatrix_2d, W_2d, num_threads=3)
        np.testing.assert_allclose(y, hmatrix_2d.matmul(W_2d), atol=1e-12)
