"""Compiled executor tier: fused native evaluators, cached in PlanStore.

This is the last lowering step the paper leaves on the inspector side:
:mod:`repro.codegen.emit` already specializes Python source per HMatrix,
but its row-panel evaluator still pays Python dispatch per panel —
slicing, branching, temporary allocation — on every call. At Q=1 (the
latency-critical serving and solver shape) that interpreter overhead
dominates the actual GEMM work.

The default ``order="batched"`` therefore runs every panel of at most
:data:`NARROW_Q_MAX` columns on a **fused executor**:

* every index table (gather runs, scatter rows, shape-bucket layouts)
  is precomputed once and frozen into flat arrays;
* all generator panels are copied into contiguous **arenas** so the hot
  loop streams one buffer instead of chasing hundreds of small arrays;
* per call, the driver only issues global gathers, 2-D/stacked GEMMs
  into **preallocated workspaces** (``np.matmul(..., out=...)``), and
  scatter-adds — same-shape coupling blocks collapse into stacked
  batched GEMMs;
* the driver itself is **emitted source** (``compile``/``exec``, like
  the rest of codegen) so the artifact records exactly what runs.

Wider panels run the row-panel evaluator: there the work is BLAS-bound,
and the fused driver's global gathers spill the cache (measured rows in
DESIGN.md section 12.1). ``"compiled"`` is a deprecated spelling of the
same order.

Two backends, selected by a capability probe:

* ``"numpy-fused"`` — always available, zero new dependencies; gathers
  and scatters are vectorized NumPy ops.
* ``"numba"`` — when :mod:`numba` is importable (never a hard
  dependency), the gather/scatter loops are JIT-compiled; GEMMs still go
  through ``np.matmul`` so results stay **bit-identical** to the
  row-panel evaluator on either backend.

Bit-identity contract: for narrow panels the fused driver performs the
*same* floating-point operations in the *same* accumulation order as the
row-panel evaluator (stacked GEMMs are bitwise equal to their per-slice
2-D calls; gathers/scatters only move bytes), so outputs are
byte-identical, and the panel width only decides speed. Called directly,
a :class:`CompiledEvaluator` hands wider panels to the row-panel
evaluator itself.

Artifacts (:class:`CompiledArtifact`: index tables, panel arenas,
workspace plan, emitted source) persist in the PlanStore tier
``"compiled"``, keyed by HMatrix fingerprint x :func:`~repro.host.host_signature`
— registered through the :class:`~repro.api.store.ArtifactTier` API, so
this module plugs into the store without touching :mod:`repro.core.io`.
A warm Session reloads them with **zero recompiles**
(:class:`CompiledStats` counts builds vs store hits). Host-mismatched,
version-skewed, or backend-unavailable artifacts degrade to the
row-panel evaluator with a typed fallback counter — never an exception.
"""

from __future__ import annotations

import importlib.util
import json
import os
import threading
import weakref
from typing import TYPE_CHECKING
from dataclasses import InitVar, dataclass, field, replace as _dc_replace

import numpy as np

from repro.analysis.codegen_check import AnalysisError, verify_artifact
from repro.api.store import ArtifactTier, PlanStore, register_tier
from repro.api.policy import NARROW_Q_MAX
from repro.codegen import emit
from repro.codegen.emit import (
    GeneratedEvaluator,
    _batched_tree_tables,
    _far_layout,
    _fill_panel,
    _near_layout,
    _rank_offsets,
)
from repro.core.io import PlanStoreError
from repro.observability.sync import make_lock, make_rlock
from repro.host import host_key, host_signature
from repro.tuning.profile import hmatrix_fingerprint

if TYPE_CHECKING:  # annotation-only: core imports this module lazily
    from repro.core.hmatrix import HMatrix

__all__ = [
    "COMPILED_FORMAT_VERSION",
    "NARROW_Q_MAX",
    "CompiledArtifact",
    "CompiledCache",
    "CompiledEvaluator",
    "CompiledStats",
    "available_backends",
    "compile_evaluator",
    "compiled_key",
    "default_compiled_cache",
    "evaluator_from_artifact",
    "load_compiled_artifact",
    "reset_default_compiled_cache",
    "save_compiled_artifact",
    "select_backend",
]

#: Payload format version of the compiled tier (bump on layout change;
#: skewed artifacts degrade to a rebuild, never a misread).
COMPILED_FORMAT_VERSION = 1

NUMPY_BACKEND = "numpy-fused"
NUMBA_BACKEND = "numba"

#: Environment override for the capability probe (CI pins its legs with
#: this): "numpy-fused" ignores an installed numba, "numba" requires it.
_BACKEND_ENV = "MATROX_COMPILED_BACKEND"


# --------------------------------------------------------------------------
# Capability probe + gather/scatter backends.
# --------------------------------------------------------------------------

def _numba_importable() -> bool:
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - broken meta_path
        return False


def available_backends() -> tuple[str, ...]:
    """Compiled backends usable on this host, preference-ordered.

    ``numpy-fused`` is always available; ``numba`` appears when the
    module is importable. ``MATROX_COMPILED_BACKEND`` narrows the probe
    (the CI legs pin it).
    """
    forced = os.environ.get(_BACKEND_ENV, "").strip()
    if forced == NUMPY_BACKEND:
        return (NUMPY_BACKEND,)
    if forced == NUMBA_BACKEND:
        return (NUMBA_BACKEND,) if _numba_importable() else ()
    out = [NUMPY_BACKEND]
    if _numba_importable():
        out.append(NUMBA_BACKEND)
    return tuple(out)


def select_backend(requested: str | None = None) -> str:
    """The backend a fresh build should use (probe + optional request)."""
    avail = available_backends()
    if not avail:
        raise RuntimeError(
            f"no compiled backend available ({_BACKEND_ENV}="
            f"{os.environ.get(_BACKEND_ENV)!r} but numba is not importable)")
    if requested is None:
        return NUMBA_BACKEND if NUMBA_BACKEND in avail else NUMPY_BACKEND
    if requested not in (NUMPY_BACKEND, NUMBA_BACKEND):
        raise ValueError(
            f"unknown compiled backend {requested!r}; expected "
            f"{NUMPY_BACKEND!r} or {NUMBA_BACKEND!r}")
    if requested not in avail:
        raise RuntimeError(f"compiled backend {requested!r} is unavailable "
                           f"on this host (have {avail})")
    return requested


def _numpy_impls():
    def gather(src, idx, out):
        np.take(src, idx, axis=0, out=out)

    def scatter_add(dst, idx, src):
        dst[idx] += src

    def scatter_set(dst, idx, src):
        dst[idx] = src

    return gather, scatter_add, scatter_set


_numba_impls_cache = None


def _numba_impls():
    """JIT-compiled gather/scatter loops (compiled once per process).

    Only the data movement is jitted; every GEMM stays on ``np.matmul``
    (the same BLAS the batched evaluator calls), which is what keeps the
    numba backend bit-identical. Under the test suite's *fake* numba
    (an identity ``njit``), these run as plain Python loops — slow but
    still exact, which is all the equivalence tests need.
    """
    global _numba_impls_cache
    if _numba_impls_cache is None:
        import numba

        def _jit(fn):
            try:
                return numba.njit(fn, cache=True, nogil=True)
            except TypeError:  # fake/old numba without these kwargs
                return numba.njit(fn)

        def gather(src, idx, out):
            for i in range(idx.shape[0]):
                out[i, :] = src[idx[i], :]

        def scatter_add(dst, idx, src):
            for i in range(idx.shape[0]):
                dst[idx[i], :] += src[i, :]

        def scatter_set(dst, idx, src):
            for i in range(idx.shape[0]):
                dst[idx[i], :] = src[i, :]

        _numba_impls_cache = (_jit(gather), _jit(scatter_add),
                              _jit(scatter_set))
    return _numba_impls_cache


def _backend_impls(backend: str):
    if backend == NUMBA_BACKEND:
        return _numba_impls()
    return _numpy_impls()


# --------------------------------------------------------------------------
# Artifact: the persisted compiled plan.
# --------------------------------------------------------------------------

#: Flat tables a compiled artifact carries (all numpy arrays).
_TABLE_NAMES = (
    "near_specs", "near_gidx", "near_arena",
    "far_specs", "far_gidx", "far_arena",
    "fstack_specs", "fstack_orows", "fstack_arena",
    "up_specs", "up_gidx", "up_own", "up_level_sizes", "up_arena",
)


@dataclass
class CompiledArtifact:
    """A fully materialized compiled plan: everything the fused driver
    needs, with **no** re-derivation from the CDS at load time.

    ``meta`` records format version, backend, fingerprint, and the host
    signature the plan was laid out for; ``source`` is the emitted
    driver text; ``tables`` holds the index tables and panel arenas
    (:data:`_TABLE_NAMES`). The whole object round-trips through one
    ``.npz`` payload (:func:`save_compiled_artifact` /
    :func:`load_compiled_artifact`) under the PlanStore ``"compiled"``
    tier.
    """

    meta: dict
    source: str
    tables: dict

    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in self.tables.values()))


def compiled_key(fingerprint: str, host: dict | None = None) -> tuple:
    """The PlanStore key of a compiled artifact: fingerprint x host."""
    return ("compiled", str(fingerprint),
            host_key(host if host is not None else host_signature()))


def save_compiled_artifact(artifact: CompiledArtifact, path) -> None:
    """Serialize one artifact to ``path`` (single ``.npz`` payload)."""
    header = json.dumps(artifact.meta, sort_keys=True, default=str)
    np.savez(path, meta=np.array(header), source=np.array(artifact.source),
             **artifact.tables)


def load_compiled_artifact(f) -> CompiledArtifact:
    """Deserialize an artifact; fails closed with :class:`PlanStoreError`.

    Any malformed, truncated, or structurally inconsistent payload
    raises — the PlanStore then quarantines the entry so the next
    request is a clean miss that rebuilds.
    """
    try:
        with np.load(f, allow_pickle=False) as z:
            names = set(z.files)
            missing = [n for n in ("meta", "source", *_TABLE_NAMES)
                       if n not in names]
            if missing:
                raise PlanStoreError(
                    f"compiled artifact is missing field(s) {missing}")
            meta = json.loads(str(z["meta"][()]))
            source = str(z["source"][()])
            tables = {n: z[n] for n in _TABLE_NAMES}
    except PlanStoreError:
        raise
    except Exception as exc:  # np.load/json raise a zoo of types
        raise PlanStoreError(
            f"compiled artifact is unreadable or truncated "
            f"({type(exc).__name__}: {exc})") from exc
    if not isinstance(meta, dict):
        raise PlanStoreError("compiled artifact meta is not a mapping")
    art = CompiledArtifact(meta=meta, source=source, tables=tables)
    _validate_tables(art)
    return art


def _validate_tables(art: CompiledArtifact) -> None:
    """Structural consistency checks (decode-time, after SHA-256).

    The store's hash catches torn/tampered *bytes*; this catches a
    payload that is valid npz but whose tables disagree with each other
    (e.g. a spec row pointing past its arena) — indexing from such a
    plan would read garbage or crash mid-evaluation.
    """
    t = art.tables

    def fail(msg):
        raise PlanStoreError(f"compiled artifact is inconsistent: {msg}")

    for name, cols in (("near_specs", 5), ("far_specs", 5),
                       ("fstack_specs", 5), ("up_specs", 6)):
        spec = t[name]
        if spec.size and (spec.ndim != 2 or spec.shape[1] != cols):
            fail(f"{name} has shape {spec.shape}, expected (*, {cols})")
    for specs, arena, szfn in (
            (t["near_specs"], t["near_arena"], lambda r: r[1] * r[2]),
            (t["far_specs"], t["far_arena"], lambda r: r[1] * r[2]),
            (t["fstack_specs"], t["fstack_arena"],
             lambda r: r[0] * r[1] * r[2]),
            (t["up_specs"], t["up_arena"], lambda r: r[0] * r[1] * r[2])):
        need = int(sum(szfn(row) for row in specs)) if specs.size else 0
        if arena.size != need:
            fail(f"arena holds {arena.size} values, specs need {need}")
    if (t["up_specs"].size
            and int(t["up_level_sizes"].sum()) != len(t["up_specs"])):
        fail("up_level_sizes does not partition up_specs")
    for gidx in (t["near_gidx"], t["far_gidx"], t["up_gidx"], t["up_own"],
                 t["fstack_orows"]):
        if gidx.size and gidx.min() < 0:
            fail("negative gather/scatter index")


# --------------------------------------------------------------------------
# Build: derive the flat tables from the CDS (shared with emit.py).
# --------------------------------------------------------------------------

def _expand_runs(runs) -> np.ndarray:
    return (np.concatenate([np.arange(a, b) for a, b in runs])
            if runs else np.empty(0, dtype=np.int64))


def build_artifact(cds, *, backend: str | None = None,
                   fingerprint: str = "", host: dict | None = None,
                   name: str = "hmatmul_compiled",
                   created: float | None = None) -> CompiledArtifact:
    """Lower one CDS matrix to a :class:`CompiledArtifact`.

    Reuses the exact layouts behind the row-panel evaluator
    (:func:`~repro.codegen.emit._near_layout` and friends), so the fused
    plan is *derived from the same schedule* it must match bit-for-bit.
    Each arena is allocated once and every panel is copied straight
    from the CDS buffers into its slot; gathers become global index
    tables, with every offset kept as a running count.
    """
    backend = select_backend(backend)
    if backend == NUMBA_BACKEND:
        try:  # importable but broken numba must not poison the artifact
            _numba_impls()
        except Exception:  # noqa: BLE001 - any jit failure degrades
            backend = NUMPY_BACKEND

    toff, rank_rows = _rank_offsets(cds)
    near = _near_layout(cds)
    far = _far_layout(cds, toff)

    def _arena(entries):
        # Zeroed: padded panels rely on their holes staying 0.
        return np.zeros(sum((ei - si) * k
                            for _r, k, si, ei, _p, _b in entries))

    def _panels_2d(entries, buf, gidx, g_off):
        """One 2-D GEMM per panel: arena, specs ``(mode, m, k, si, src)``.
        A single-run operand is a view at row ``src``; a scattered one
        is gathered into ``gidx``, at offset ``src`` of its table."""
        arena, specs, a_off = _arena(entries), [], 0
        for runs, k, si, ei, _padded, blocks in entries:
            m = ei - si
            _fill_panel(arena[a_off:a_off + m * k].reshape(m, k), blocks,
                        buf)
            a_off += m * k
            if len(runs) == 1:
                specs.append((0, m, k, si, runs[0][0]))
            else:
                specs.append((1, m, k, si, g_off))
                gidx.append(_expand_runs(runs))
                g_off += k
        return arena, specs

    # ---- near: one 2-D GEMM per row panel --------------------------------
    near_gidx: list[np.ndarray] = []
    near_arena, near_specs = _panels_2d(near, cds.near_buf, near_gidx, 0)

    # ---- far: same-shape groups stack; the rest stay 2-D -----------------
    by_shape: dict[tuple, list[int]] = {}
    for idx, (_runs, k, si, ei, _p, _b) in enumerate(far):
        by_shape.setdefault((ei - si, k), []).append(idx)
    groups = [(shape, members) for shape, members in by_shape.items()
              if len(members) > 1]
    stacked = {i for _shape, members in groups for i in members}

    far_gidx: list[np.ndarray] = []
    fstack_specs, fstack_orows = [], []
    fstack_arena = _arena([far[i] for _shape, members in groups
                           for i in members])
    a_off = g_off = o_off = 0
    for (m, k), members in groups:
        fstack_specs.append((len(members), m, k, g_off, o_off))
        for i in members:
            runs, _k, si, _ei, _p, blocks = far[i]
            _fill_panel(fstack_arena[a_off:a_off + m * k].reshape(m, k),
                        blocks, cds.far_buf)
            a_off += m * k
            far_gidx.append(_expand_runs(runs))
            g_off += k
            fstack_orows.append(np.arange(si, si + m))
            o_off += m
    far_arena, far_specs = _panels_2d(
        [e for idx, e in enumerate(far) if idx not in stacked], cds.far_buf,
        far_gidx, g_off)

    # ---- tree sweeps: shape buckets, one stacked GEMM each ---------------
    # Every basis generator sits in exactly one bucket, so the stacks fill
    # a prefix of one basis-sized arena, gathered straight into place.
    # G is stored (batch, cols, r); GT is its transpose view at load —
    # exactly how emit.py shares the stack.
    up_arena = np.empty(cds.basis_buf.size)
    up_fill = 0

    def stack(bucket):
        nonlocal up_fill
        rows, cols = bucket.shape
        n = bucket.batch * rows * cols
        G = bucket.gather(cds.basis_buf, out=up_arena[up_fill:up_fill + n])
        up_fill += n
        return G

    up_levels, _ = _batched_tree_tables(cds, toff, stack=stack)
    up_arena = up_arena[:up_fill]
    up_specs, up_gidx, up_own, up_level_sizes = [], [], [], []
    g_off = o_off = 0
    for level in up_levels:
        up_level_sizes.append(len(level))
        for GT, gather, own, from_w in level:
            batch, r, cols = GT.shape
            up_specs.append((batch, r, cols, g_off, o_off, int(from_w)))
            up_gidx.append(gather.ravel())
            up_own.append(own)
            g_off += gather.size
            o_off += own.size

    def _cat_i(parts):
        return (np.concatenate(parts).astype(np.int64, copy=False)
                if parts else np.empty(0, dtype=np.int64))

    def _spec(rows, cols):
        return (np.asarray(rows, dtype=np.int64) if rows
                else np.empty((0, cols), dtype=np.int64))

    tables = {
        "near_specs": _spec(near_specs, 5),
        "near_gidx": _cat_i(near_gidx),
        "near_arena": near_arena,
        "far_specs": _spec(far_specs, 5),
        "far_gidx": _cat_i(far_gidx),
        "far_arena": far_arena,
        "fstack_specs": _spec(fstack_specs, 5),
        "fstack_orows": _cat_i(fstack_orows),
        "fstack_arena": fstack_arena,
        "up_specs": _spec(up_specs, 6),
        "up_gidx": _cat_i(up_gidx),
        "up_own": _cat_i(up_own),
        "up_level_sizes": np.asarray(up_level_sizes, dtype=np.int64),
        "up_arena": up_arena,
    }
    counts = {
        "near_panels": len(near_specs),
        "far_singles": len(far_specs),
        "far_stacks": len(fstack_specs),
        "far_stack_members": len(fstack_orows),
        "up_buckets": len(up_specs),
        "levels": len(up_level_sizes),
    }
    meta = {
        "format_version": COMPILED_FORMAT_VERSION,
        "backend": backend,
        "dim": int(cds.dim),
        "rank_rows": int(rank_rows),
        "narrow_q": NARROW_Q_MAX,
        "name": name,
        "fingerprint": str(fingerprint),
        "host": dict(host if host is not None else host_signature()),
        "counts": counts,
        # Explicit input, never a clock sample (lint rule R004): two
        # builds from the same CDS must produce byte-identical payloads
        # unless the caller *chooses* to timestamp them.
        "created": created,
    }
    source = _SOURCE_TEMPLATE.format(
        name=name, backend=backend,
        counts=", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return CompiledArtifact(meta=meta, source=source, tables=tables)


# --------------------------------------------------------------------------
# Runtime: emitted driver + prebound plan + per-width workspaces.
# --------------------------------------------------------------------------

_SOURCE_TEMPLATE = '''\
def {name}(W, Y, ws):
    """Compiled fused HMatrix-matrix multiplication (tree order, narrow Q).

    Backend: {backend}. Emitted for one HMatrix ({counts}); index
    tables and panel arenas are frozen in the artifact, workspaces are
    preallocated per RHS width. The driver only issues global gathers,
    GEMMs (np.matmul -> the same BLAS order="batched" calls, for bit
    identity), and scatter-adds.
    """
    mm = np.matmul
    T = ws.T
    S = ws.S
    S[:] = 0.0
    # Near loop: one 2-D GEMM per row panel. Single-run operands are
    # views of W; scattered operands come from one global gather. When
    # the panel row ranges tile [0, N) (ws.nout is bound), panels write
    # a Y-aligned arena and accumulate in ONE vectorized add — Y is
    # all-zero here, so 0.0 + x per element matches the batched
    # evaluator's per-panel adds bit-for-bit.
    if ws.ngat is not None:
        _gather(W, NEAR_GIDX, ws.ngat)
    if ws.nout is not None:
        for panel, src, out, ysl in ws.near_view:
            mm(panel, W[src], out=out)
        for panel, src, out, ysl in ws.near_gath:
            mm(panel, src, out=out)
        Y += ws.nout
    else:
        for panel, src, out, ysl in ws.near_view:
            mm(panel, W[src], out=out)
            Y[ysl] += out
        for panel, src, out, ysl in ws.near_gath:
            mm(panel, src, out=out)
            Y[ysl] += out
    # Upward sweep: one stacked GEMM per shape bucket, bottom-up.
    for GT, from_w, gidx, gbuf2, gbuf3, out3, out2, own in ws.up:
        _gather(W if from_w else T, gidx, gbuf2)
        mm(GT, gbuf3, out=out3)
        _scatter_set(T, own, out2)
    # Coupling loop: singles as 2-D GEMMs (T views or slices of one
    # global gather), same-shape groups as stacked GEMMs.
    if ws.fgat is not None:
        _gather(T, FAR_GIDX, ws.fgat)
    for panel, src, out, ssl in ws.far_view:
        mm(panel, src, out=out)
        S[ssl] += out
    for panel, src, out, ssl in ws.far_gath:
        mm(panel, src, out=out)
        S[ssl] += out
    for G3, X3, out3, out2, orows in ws.far_stack:
        mm(G3, X3, out=out3)
        _scatter_add(S, orows, out2)
    # Downward sweep: reversed levels; leaf buckets scatter into Y,
    # interior buckets into the children's S rows.
    for G, from_w, own, sbuf2, sbuf3, out3, out2, scat in ws.down:
        _gather(S, own, sbuf2)
        mm(G, sbuf3, out=out3)
        if from_w:
            _scatter_add(Y, scat, out2)
        else:
            _scatter_add(S, scat, out2)
    return Y
'''


class _Plan:
    """Q-independent prepared form of an artifact (views, python ints)."""

    __slots__ = ("dim", "rank_rows", "near", "near_dense", "near_gidx",
                 "far", "far_gidx", "fstacks", "up_levels")

    def __init__(self, art: CompiledArtifact):
        t = art.tables
        self.dim = int(art.meta["dim"])
        self.rank_rows = int(art.meta["rank_rows"])
        self.near_gidx = t["near_gidx"].astype(np.intp, copy=False)
        self.far_gidx = t["far_gidx"].astype(np.intp, copy=False)

        def panels(specs, arena, size):
            out, off = [], 0
            for row in specs:
                dims = [int(x) for x in row]
                n = size(dims)
                yield dims, arena[off:off + n]
                off += n

        self.near = []
        for (mode, m, k, si, a), chunk in panels(
                t["near_specs"], t["near_arena"], lambda d: d[1] * d[2]):
            self.near.append((mode, chunk.reshape(m, k), m, k, si, a))
        # Row panels usually tile [0, N) exactly (every row sits in one
        # leaf and every leaf emits one near panel); when they do, the
        # workspace lays the panel outputs in one Y-aligned arena and
        # the driver folds the per-panel adds into a single accumulate.
        self.near.sort(key=lambda e: e[4])
        ranges = [(e[4], e[4] + e[2]) for e in self.near]
        self.near_dense = bool(
            ranges and ranges[0][0] == 0 and ranges[-1][1] == self.dim
            and all(a[1] == b[0]
                    for a, b in zip(ranges, ranges[1:], strict=False)))
        self.far = []
        for (mode, m, k, si, a), chunk in panels(
                t["far_specs"], t["far_arena"], lambda d: d[1] * d[2]):
            self.far.append((mode, chunk.reshape(m, k), m, k, si, a))
        orows = t["fstack_orows"].astype(np.intp, copy=False)
        self.fstacks = []
        for (g, m, k, gat_off, orow_off), chunk in panels(
                t["fstack_specs"], t["fstack_arena"],
                lambda d: d[0] * d[1] * d[2]):
            self.fstacks.append((chunk.reshape(g, m, k), g, m, k, gat_off,
                                 orows[orow_off:orow_off + g * m]))
        gidx = t["up_gidx"].astype(np.intp, copy=False)
        own = t["up_own"].astype(np.intp, copy=False)
        buckets = []
        for (batch, r, cols, goff, ooff, from_w), chunk in panels(
                t["up_specs"], t["up_arena"], lambda d: d[0] * d[1] * d[2]):
            G = chunk.reshape(batch, cols, r)
            buckets.append((G, batch, r, cols,
                            gidx[goff:goff + batch * cols],
                            own[ooff:ooff + batch * r], bool(from_w)))
        self.up_levels = []
        i = 0
        for size in t["up_level_sizes"]:
            self.up_levels.append(buckets[i:i + int(size)])
            i += int(size)


class _Workspace:
    """Preallocated buffers + prebound views for one RHS width."""

    __slots__ = ("T", "S", "ngat", "fgat", "nout", "near_view", "near_gath",
                 "far_view", "far_gath", "far_stack", "up", "down")


def _build_workspace(plan: _Plan, q: int) -> _Workspace:
    ws = _Workspace()
    ws.T = np.empty((plan.rank_rows, q))
    ws.S = np.empty((plan.rank_rows, q))
    ws.ngat = (np.empty((len(plan.near_gidx), q))
               if len(plan.near_gidx) else None)
    ws.fgat = (np.empty((len(plan.far_gidx), q))
               if len(plan.far_gidx) else None)

    ws.near_view, ws.near_gath = [], []
    nout = np.empty((sum(e[2] for e in plan.near), q))
    ws.nout = nout if plan.near_dense else None
    o = 0
    for mode, panel, m, k, si, a in plan.near:
        # Dense tiling: plan.near is si-sorted, so laying outputs in
        # plan order makes nout row-aligned with Y.
        out = nout[o:o + m]
        o += m
        ysl = slice(si, si + m)
        if mode == 0:
            ws.near_view.append((panel, slice(a, a + k), out, ysl))
        else:
            ws.near_gath.append((panel, ws.ngat[a:a + k], out, ysl))

    ws.far_view, ws.far_gath = [], []
    fout = np.empty((sum(e[2] for e in plan.far), q))
    o = 0
    for mode, panel, m, k, si, a in plan.far:
        out = fout[o:o + m]
        o += m
        ssl = slice(si, si + m)
        if mode == 0:
            ws.far_view.append((panel, ws.T[a:a + k], out, ssl))
        else:
            ws.far_gath.append((panel, ws.fgat[a:a + k], out, ssl))

    ws.far_stack = []
    for G3, g, m, k, gat_off, orows in plan.fstacks:
        X3 = ws.fgat[gat_off:gat_off + g * k].reshape(g, k, q)
        out3 = np.empty((g, m, q))
        ws.far_stack.append((G3, X3, out3, out3.reshape(g * m, q), orows))

    ws.up, ws.down = [], []
    for level in plan.up_levels:
        for G, batch, r, cols, gidx, own, from_w in level:
            gbuf2 = np.empty((batch * cols, q))
            out3 = np.empty((batch, r, q))
            ws.up.append((G.transpose(0, 2, 1), from_w, gidx, gbuf2,
                          gbuf2.reshape(batch, cols, q), out3,
                          out3.reshape(batch * r, q), own))
    for level in reversed(plan.up_levels):
        for G, batch, r, cols, gidx, own, from_w in level:
            sbuf2 = np.empty((batch * r, q))
            out3 = np.empty((batch, cols, q))
            ws.down.append((G, from_w, own, sbuf2,
                            sbuf2.reshape(batch, r, q), out3,
                            out3.reshape(batch * cols, q), gidx))
    return ws


class _Runtime:
    """Shared mutable runtime of a CompiledEvaluator (survives
    ``dataclasses.replace``, so q_chunk overrides never recompile).

    ``workspaces`` maps an RHS width to a free list: a call checks one
    workspace out under ``lock`` and returns it afterwards, so
    concurrent callers at one width never share buffers (a second
    caller builds its own; the list then keeps both for reuse).
    ``batched`` is the row-panel evaluator wide panels delegate to,
    resolved from the owning HMatrix on the first wide panel.
    """

    __slots__ = ("plan", "fn", "workspaces", "lock", "calls", "owner",
                 "cds", "batched")

    def __init__(self, plan, fn, owner, cds):
        self.plan = plan
        self.fn = fn
        self.workspaces: dict[int, list[_Workspace]] = {}  # guarded-by: self.lock
        self.lock = make_lock("_Runtime.lock")
        self.calls = 0  # guarded-by: self.lock
        self.owner = owner
        self.cds = cds
        self.batched: GeneratedEvaluator | None = None


@dataclass
class CompiledEvaluator:
    """A fused compiled HMatrix-matrix multiplication (tree order).

    Same call contract as :class:`~repro.codegen.emit.GeneratedEvaluator`
    (row order = tree order; :meth:`HMatrix.matmul` applies the
    permutation). Narrow panels (<= :data:`NARROW_Q_MAX` columns) run the
    fused driver; wider panels delegate to :attr:`batched` — structurally
    the same schedule, so results are bit-identical either way.

    ``owner`` is the HMatrix the artifact was compiled for. It is only
    held weakly, so the evaluator attached to it forms no reference
    cycle; ``dataclasses.replace`` copies share the runtime instead.
    """

    artifact: CompiledArtifact
    owner: InitVar[HMatrix | None] = None
    q_chunk: int | None = None
    name: str = "hmatmul_compiled"
    _rt: _Runtime | None = field(default=None, repr=False)

    def __post_init__(self, owner):
        if self._rt is None:
            if owner is None:
                raise TypeError("CompiledEvaluator needs the owning HMatrix")
            plan = _Plan(self.artifact)
            backend = self.artifact.meta.get("backend", NUMPY_BACKEND)
            gather, scatter_add, scatter_set = _backend_impls(backend)
            env = {
                "np": np,
                "NEAR_GIDX": plan.near_gidx,
                "FAR_GIDX": plan.far_gidx,
                "_gather": gather,
                "_scatter_add": scatter_add,
                "_scatter_set": scatter_set,
            }
            source = self.artifact.source
            code = compile(source, f"<matrox-compiled:{self.name}>", "exec")
            exec(code, env)
            fname = self.artifact.meta.get("name", self.name)
            self._rt = _Runtime(plan, env[fname], weakref.ref(owner),
                                owner.cds)

    @property
    def source(self) -> str:
        return self.artifact.source

    @property
    def backend(self) -> str:
        return self.artifact.meta.get("backend", NUMPY_BACKEND)

    @property
    def batched(self) -> GeneratedEvaluator:
        """The row-panel evaluator wide panels delegate to.

        Built on the first wide panel, not with the artifact: it is the
        owning HMatrix's own (lazy) evaluator, or a fresh one over the
        same CDS once that HMatrix is gone.
        """
        rt = self._rt
        if rt.batched is None:
            owner = rt.owner()
            rt.batched = (owner.batched_evaluator if owner is not None
                          else emit.generate_batched_evaluator(rt.cds))
        return rt.batched

    def __call__(self, W: np.ndarray, pool=None) -> np.ndarray:
        """Evaluate ``Y = K~ W`` (tree order). W: (N, Q) or (N,)."""
        W = np.ascontiguousarray(W, dtype=np.float64)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        rt = self._rt
        n = rt.plan.dim
        if W.shape[0] != n:
            raise ValueError(f"W has {W.shape[0]} rows, HMatrix dim is {n}")
        q = W.shape[1]
        if q == 0 or q > NARROW_Q_MAX:
            # Wide/degenerate panels: the row-panel evaluator's regime.
            b = self.batched
            if self.q_chunk is not None and b.q_chunk != self.q_chunk:
                b = _dc_replace(b, q_chunk=self.q_chunk)
            Y = b(W, pool=pool)
        else:
            with rt.lock:
                free = rt.workspaces.get(q)
                ws = free.pop() if free else None
                rt.calls += 1
            if ws is None:
                ws = _build_workspace(rt.plan, q)
            Y = np.zeros_like(W)
            try:
                rt.fn(W, Y, ws)
            finally:
                with rt.lock:
                    rt.workspaces.setdefault(q, []).append(ws)
        return Y[:, 0] if squeeze else Y


def evaluator_from_artifact(artifact: CompiledArtifact,
                            H) -> CompiledEvaluator:
    """Rehydrate a :class:`CompiledEvaluator` for ``H`` from an artifact.

    Pure table binding — nothing is re-derived from the CDS, which is
    what makes a warm start a zero-recompile operation.
    """
    if int(artifact.meta.get("dim", -1)) != int(H.dim):
        raise PlanStoreError(
            f"compiled artifact dim {artifact.meta.get('dim')!r} does not "
            f"match the HMatrix dim {H.dim}")
    return CompiledEvaluator(
        artifact=artifact, owner=H,
        name=str(artifact.meta.get("name", "hmatmul_compiled")))


def compile_evaluator(H, *, backend: str | None = None,
                      name: str = "hmatmul_compiled",
                      fingerprint: str | None = None) -> CompiledEvaluator:
    """Build a fused compiled evaluator for ``H`` (fresh tables).

    Raises ``ValueError`` when batch lowering was rejected for ``H``
    (the fused plan is derived from the batched schedule). The row-panel
    evaluator is not built here; ``fingerprint`` skips recomputing
    ``hmatrix_fingerprint(H)`` when the caller already has it.
    """
    if not H.evaluator.decision.batch:
        raise ValueError(
            "cannot compile: batch lowering was rejected for this HMatrix")
    art = build_artifact(
        H.cds, backend=backend,
        fingerprint=(fingerprint if fingerprint is not None
                     else hmatrix_fingerprint(H)),
        host=host_signature(), name=name)
    return evaluator_from_artifact(art, H)


# --------------------------------------------------------------------------
# Cache: memory -> PlanStore -> build, with typed fallbacks.
# --------------------------------------------------------------------------

@dataclass
class CompiledStats:
    """Counters proving where compiled evaluators came from.

    ``builds`` increments only on a fresh table derivation — a warm
    Session restart over a populated store must keep it at zero.
    ``fallbacks`` maps a typed reason (``host_mismatch``,
    ``numba_missing``, ``version_skew``, ``fingerprint_mismatch``,
    ``store_corrupt``, ``no_batched_lowering``, ``build_error``,
    ``writeset_violation`` — the artifact failed the
    :func:`repro.analysis.codegen_check.verify_artifact` write-set
    proof) to how many times a narrow product degraded to the row-panel
    evaluator.
    """

    builds: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    store_puts: int = 0
    fallbacks: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"builds": self.builds, "memory_hits": self.memory_hits,
                "store_hits": self.store_hits,
                "store_puts": self.store_puts,
                "fallbacks": dict(self.fallbacks)}


class CompiledCache:
    """Resolve the compiled evaluator of an HMatrix, durably.

    Resolution order: the evaluator attached to ``H`` (memory) → the
    PlanStore ``"compiled"`` tier (fingerprint x host key) → a fresh
    build (persisted back when a store is attached). Every degradation
    is a *typed counter*, never an exception: ``evaluator_for`` returns
    ``None`` and the caller runs the row-panel evaluator instead.
    """

    def __init__(self, store: PlanStore | None = None, *,
                 backend: str | None = None,
                 host: dict | None = None):
        self.store = store
        self.backend = backend
        self.host = dict(host) if host is not None else host_signature()
        self.stats = CompiledStats()
        self._lock = make_rlock("CompiledCache._lock")
        self._persisted: set[str] = set()  # guarded-by: self._lock

    def key(self, fingerprint: str) -> tuple:
        return compiled_key(fingerprint, self.host)

    def _fallback(self, reason: str) -> None:
        self.stats.fallbacks[reason] = self.stats.fallbacks.get(reason, 0) + 1

    def evaluator_for(self, H) -> CompiledEvaluator | None:
        """The compiled evaluator for ``H``, or ``None`` (degrade)."""
        with self._lock:
            if getattr(H, "_compiled_built", False):
                ev = H._compiled
                if ev is not None:
                    self.stats.memory_hits += 1
                    self._persist(ev)
                return ev
            if not H.evaluator.decision.batch:
                self._fallback("no_batched_lowering")
                H.attach_compiled(None)
                return None
            fp = hmatrix_fingerprint(H)
            art = None
            if self.store is not None:
                try:
                    art = self.store.get("compiled", self.key(fp))
                except PlanStoreError:
                    # The store verified, failed, and quarantined the
                    # entry already; degrade to one rebuild below.
                    self._fallback("store_corrupt")
            if art is not None:
                reason = self._unusable_reason(art, fp)
                if reason is not None:
                    self._fallback(reason)
                    H.attach_compiled(None)
                    return None
                # Write-set verification gates every store-loaded
                # artifact *before* its source is exec'd or its tables
                # indexed: overlapping scatter sets (store rot, a
                # doctored payload, a future codegen bug) degrade to
                # batched instead of executing wrong.
                try:
                    verify_artifact(art)
                except AnalysisError:
                    self._fallback("writeset_violation")
                    H.attach_compiled(None)
                    return None
                try:
                    ev = evaluator_from_artifact(art, H)
                except PlanStoreError:
                    self._fallback("artifact_mismatch")
                    H.attach_compiled(None)
                    return None
                self.stats.store_hits += 1
                self._persisted.add(fp)
                H.attach_compiled(ev)
                return ev
            try:
                ev = compile_evaluator(H, backend=self.backend,
                                       fingerprint=fp)
            except Exception:  # noqa: BLE001 - serving degrades, never raises
                self._fallback("build_error")
                H.attach_compiled(None)
                return None
            # Fresh builds are verified too — the guard is against
            # emitted-code bugs as much as against store rot.
            try:
                verify_artifact(ev.artifact)
            except AnalysisError:
                self._fallback("writeset_violation")
                H.attach_compiled(None)
                return None
            self.stats.builds += 1
            H.attach_compiled(ev)
            self._persist(ev, fp)
            return ev

    def _persist(self, ev: CompiledEvaluator, fp: str | None = None) -> None:
        if self.store is None:
            return
        fp = fp if fp is not None else str(
            ev.artifact.meta.get("fingerprint", ""))
        if not fp or fp in self._persisted:
            return
        self.store.put("compiled", self.key(fp), ev.artifact)
        self._persisted.add(fp)
        self.stats.store_puts += 1

    def _unusable_reason(self, art: CompiledArtifact,
                         fp: str) -> str | None:
        meta = art.meta if isinstance(art.meta, dict) else {}
        if meta.get("format_version") != COMPILED_FORMAT_VERSION:
            return "version_skew"
        if meta.get("fingerprint") != fp:
            return "fingerprint_mismatch"
        if host_key(meta.get("host") or {}) != host_key(self.host):
            return "host_mismatch"
        backend = meta.get("backend")
        if backend not in (NUMPY_BACKEND, NUMBA_BACKEND):
            return "unknown_backend"
        if backend == NUMBA_BACKEND and NUMBA_BACKEND not in (
                available_backends()):
            return "numba_missing"
        return None

    def stats_dict(self) -> dict:
        with self._lock:
            return self.stats.as_dict()


_default_cache: CompiledCache | None = None
_default_cache_lock = threading.Lock()


def default_compiled_cache() -> CompiledCache:
    """The process-global cache behind a bare narrow ``H.matmul(W)``.

    Memory-only (attach-to-H); Executors/Sessions with a PlanStore own a
    persistent :class:`CompiledCache` instead.
    """
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = CompiledCache()
        return _default_cache


def reset_default_compiled_cache() -> None:
    """Drop the process-global cache (test isolation)."""
    global _default_cache
    with _default_cache_lock:
        _default_cache = None


# --------------------------------------------------------------------------
# Registration: the PlanStore tier.
# --------------------------------------------------------------------------

register_tier(ArtifactTier(
    "compiled", save_compiled_artifact, load_compiled_artifact,
    version=COMPILED_FORMAT_VERSION, default_memory_entries=4))
