"""Unit and property tests for interpolative decomposition."""

import ctypes
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.cython_blas
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import interp_decomp, interpolative_decomposition


def lowrank_matrix(rng, s, m, r, noise=0.0):
    A = rng.normal(size=(s, r)) @ rng.normal(size=(r, m))
    if noise:
        A += noise * rng.normal(size=(s, m))
    return A


class TestInterpolativeDecomposition:
    def test_exact_rank_recovery(self, rng):
        G = lowrank_matrix(rng, 40, 30, 5)
        d = interpolative_decomposition(G, bacc=1e-10)
        assert d.rank == 5
        np.testing.assert_allclose(d.reconstruct(G), G, atol=1e-8)

    def test_identity_on_skeleton_columns(self, rng):
        G = lowrank_matrix(rng, 30, 20, 4)
        d = interpolative_decomposition(G, bacc=1e-10)
        np.testing.assert_allclose(
            d.interp[:, d.skeleton], np.eye(d.rank), atol=1e-12
        )

    def test_bacc_controls_rank(self, rng):
        # Geometrically decaying singular values: looser bacc -> smaller rank.
        U, _ = np.linalg.qr(rng.normal(size=(50, 20)))
        V, _ = np.linalg.qr(rng.normal(size=(40, 20)))
        s = 10.0 ** -np.arange(20, dtype=float)
        G = U @ np.diag(s) @ V.T
        loose = interpolative_decomposition(G, bacc=1e-2).rank
        tight = interpolative_decomposition(G, bacc=1e-8).rank
        assert loose < tight

    def test_reconstruction_error_tracks_bacc(self, rng):
        U, _ = np.linalg.qr(rng.normal(size=(60, 30)))
        V, _ = np.linalg.qr(rng.normal(size=(50, 30)))
        s = 2.0 ** -np.arange(30, dtype=float)
        G = U @ np.diag(s) @ V.T
        for bacc in (1e-2, 1e-4, 1e-6):
            d = interpolative_decomposition(G, bacc=bacc)
            rel = np.linalg.norm(d.reconstruct(G) - G) / np.linalg.norm(G)
            assert rel <= 50 * bacc  # pivot decay is a loose error proxy

    def test_max_rank_cap(self, rng):
        G = rng.normal(size=(50, 40))  # full rank
        d = interpolative_decomposition(G, bacc=1e-16, max_rank=7)
        assert d.rank == 7

    def test_fixed_rank_override(self, rng):
        G = rng.normal(size=(30, 25))
        d = interpolative_decomposition(G, rank=3)
        assert d.rank == 3

    def test_zero_matrix(self):
        G = np.zeros((10, 8))
        d = interpolative_decomposition(G, bacc=1e-5)
        assert d.rank == 1
        np.testing.assert_allclose(d.reconstruct(G), 0.0)

    def test_empty_sample_rows(self):
        G = np.zeros((0, 6))
        d = interpolative_decomposition(G)
        assert d.rank == 1
        assert d.interp.shape == (1, 6)

    def test_single_column(self, rng):
        G = rng.normal(size=(10, 1))
        d = interpolative_decomposition(G, bacc=1e-10)
        assert d.rank == 1
        np.testing.assert_allclose(d.reconstruct(G), G, atol=1e-12)

    def test_achieved_error_reported(self, rng):
        G = rng.normal(size=(30, 30))
        d = interpolative_decomposition(G, bacc=1e-1)
        assert 0.0 <= d.achieved_error <= 1e-1 * 10  # within an order

    def test_skeleton_indices_valid_and_unique(self, rng):
        G = rng.normal(size=(25, 18))
        d = interpolative_decomposition(G, bacc=1e-3)
        assert len(np.unique(d.skeleton)) == d.rank
        assert (d.skeleton >= 0).all() and (d.skeleton < 18).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            interpolative_decomposition(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            interpolative_decomposition(np.zeros((5, 0)))

    @given(
        r=st.integers(1, 6),
        s=st.integers(8, 30),
        m=st.integers(7, 25),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_rank_never_exceeds_true_rank_plus_noise(self, r, s, m):
        rng = np.random.default_rng(r * 1000 + s * 10 + m)
        G = lowrank_matrix(rng, s, m, min(r, m, s))
        d = interpolative_decomposition(G, bacc=1e-9)
        assert d.rank <= min(r, m, s) + 1

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_reconstruction_beats_bacc_for_decaying_spectra(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(10, 30))
        s = m + 10
        U, _ = np.linalg.qr(rng.normal(size=(s, m)))
        V, _ = np.linalg.qr(rng.normal(size=(m, m)))
        sing = 3.0 ** -np.arange(m, dtype=float)
        G = U @ np.diag(sing) @ V.T
        d = interpolative_decomposition(G, bacc=1e-6)
        rel = np.linalg.norm(d.reconstruct(G) - G) / np.linalg.norm(G)
        assert rel < 1e-4


def _economic_qr(qr):
    """scipy's pivoted QR as the ID computed it before: Q formed, dropped."""

    def wrapped(G, mode="full", pivoting=False, **kw):
        assert mode == "r" and pivoting
        _q, R, piv = qr(G, mode="economic", pivoting=True, **kw)
        return R, piv

    return wrapped


class TestRonlyQR:
    """``mode="r"`` skips forming Q; R, the pivots and the ID are unchanged."""

    @pytest.mark.parametrize(
        "shape, true_rank, kw",
        [
            ((12, 30), None, {}),  # s < m
            ((40, 15), None, {}),  # s > m
            ((20, 20), None, {}),  # s = m
            ((25, 18), 4, {}),  # rank-deficient
            ((30, 30), 3, {"bacc": 1e-12}),  # deficient, tight bacc
            ((25, 18), None, {"rank": 5}),  # fixed-rank override
            ((10, 8), 0, {}),  # zero matrix
        ],
    )
    def test_bit_identical_to_economic(self, rng, monkeypatch, shape, true_rank, kw):
        s, m = shape
        if true_rank is None:
            U, _ = np.linalg.qr(rng.normal(size=(s, min(s, m))))
            V, _ = np.linalg.qr(rng.normal(size=(m, min(s, m))))
            G = U @ np.diag(2.0 ** -np.arange(min(s, m))) @ V.T
        elif true_rank == 0:
            G = np.zeros(shape)
        else:
            G = lowrank_matrix(rng, s, m, true_rank)
        got = interpolative_decomposition(G, **kw)
        monkeypatch.setattr(scipy.linalg, "qr", _economic_qr(scipy.linalg.qr))
        want = interpolative_decomposition(G, **kw)
        assert got.rank == want.rank
        np.testing.assert_array_equal(got.skeleton, want.skeleton)
        assert got.interp.tobytes() == want.interp.tobytes()
        assert got.achieved_error == want.achieved_error


class _FakeLib:
    """A loaded BLAS with only the given exported thread setters."""

    def __init__(self, *names):
        self.calls = []
        for name in names:
            setattr(self, name, self._setter(name))

    def _setter(self, name):
        def setter(n):
            self.calls.append((name, n))

        return setter


class TestScipyBlasPin:
    """Importing repro pins scipy's bundled OpenBLAS to one thread."""

    def test_import_pins_scipy_openblas_to_one_thread(self):
        # This module's own ``import repro.compression`` made the pin.
        lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
        getter = getattr(lib, "scipy_openblas_get_num_threads", None) or getattr(
            lib, "openblas_get_num_threads", None
        )
        if getter is None:
            pytest.skip("scipy's BLAS exports no OpenBLAS thread getter")
        assert interp_decomp.SCIPY_BLAS_PINNED
        assert getter() == 1

    def test_prefers_prefixed_setter_then_falls_back(self, monkeypatch):
        both = _FakeLib(*interp_decomp._SETTERS)
        monkeypatch.setattr(interp_decomp.ctypes, "CDLL", lambda path: both)
        assert interp_decomp._pin_scipy_blas() is True
        assert both.calls == [("scipy_openblas_set_num_threads", 1)]

        legacy = _FakeLib("openblas_set_num_threads")
        monkeypatch.setattr(interp_decomp.ctypes, "CDLL", lambda path: legacy)
        assert interp_decomp._pin_scipy_blas() is True
        assert legacy.calls == [("openblas_set_num_threads", 1)]

    @pytest.mark.parametrize("failure", ["no-symbol", "no-library"])
    def test_silent_noop_when_lookup_fails(self, monkeypatch, capsys, failure):
        def cdll(path):
            if failure == "no-library":
                raise OSError("cannot open shared object")
            return _FakeLib()  # e.g. MKL/BLIS/Accelerate: no setter

        monkeypatch.setattr(interp_decomp.ctypes, "CDLL", cdll)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert interp_decomp._pin_scipy_blas() is False
        assert capsys.readouterr() == ("", "")
