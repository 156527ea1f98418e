"""Emission of specialized evaluation code.

``generate_evaluator`` lowers the IR to Python source text (the analogue of
the paper's emitted C code), binds the structure sets to *views into the CDS
buffers* as constant tables, and compiles the source with ``compile``/``exec``.
The generated function is specialized for one HMatrix: which loops exist,
whether they iterate over structure sets or raw interaction lists, and
whether the root iteration is peeled are all baked into the source.

The generated callable computes ``Y += K~ @ W`` in tree order and can run
serially or over a thread pool (NumPy's BLAS releases the GIL inside GEMMs,
so block/sub-tree tasks genuinely overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from repro.analysis.structure_sets import CoarsenSet
from repro.codegen.ir import EvaluationIR
from repro.codegen.lowering import LoweringDecision, decide_lowering
from repro.storage.cds import CDSMatrix

# Opcodes for tree-loop operations (kept as plain ints for dispatch speed).
OP_LEAF = 0
OP_INTERIOR = 1


def _run_parallel(pool, fn, items):
    """Execute ``fn`` over ``items`` — serially or on the supplied pool."""
    if pool is None:
        for it in items:
            fn(it)
    else:
        list(pool.map(fn, items))


@dataclass
class GeneratedEvaluator:
    """A compiled, specialized HMatrix-matrix multiplication.

    ``q_chunk`` (when set) streams right-hand sides through the generated
    code in column panels of at most that width, so the W/Y/T/S panels of
    one pass stay cache-resident for arbitrarily wide Q (the batched
    engine's multi-RHS path; see DESIGN.md section 3).
    """

    source: str
    decision: LoweringDecision
    cds: CDSMatrix
    _fn: Callable = field(repr=False, default=None)
    name: str = "hmatmul"
    q_chunk: int | None = None

    def __call__(self, W: np.ndarray, pool=None) -> np.ndarray:
        """Evaluate ``Y = K~ W`` (tree order). W: (N, Q) or (N,)."""
        W = np.ascontiguousarray(W, dtype=np.float64)
        squeeze = W.ndim == 1
        if squeeze:
            W = W[:, None]
        n = self.cds.dim
        if W.shape[0] != n:
            raise ValueError(f"W has {W.shape[0]} rows, HMatrix dim is {n}")
        Y = np.zeros_like(W)
        qc = self.q_chunk
        if qc and W.shape[1] > qc:
            for q0 in range(0, W.shape[1], qc):
                Wc = np.ascontiguousarray(W[:, q0:q0 + qc])
                Yc = np.zeros_like(Wc)
                self._fn(Wc, Yc, pool)
                Y[:, q0:q0 + qc] = Yc
        else:
            self._fn(W, Y, pool)
        return Y[:, 0] if squeeze else Y


# --------------------------------------------------------------------------
# Table construction: bind structure sets to CDS views.
# --------------------------------------------------------------------------

def _near_tables(cds: CDSMatrix, blocked: bool):
    """Near-loop task tables: blocked → list of blocks, serial → one list."""
    t = cds.tree
    def entry(i, j):
        return (cds.near(i, j), int(t.start[i]), int(t.stop[i]),
                int(t.start[j]), int(t.stop[j]))
    if blocked:
        return [
            tuple(entry(i, j) for (i, j) in block)
            for block in cds.near_blockset.blocks
        ]
    pairs = sorted(cds.factors.near_blocks)
    return [tuple(entry(i, j) for (i, j) in pairs)]


def _far_tables(cds: CDSMatrix, blocked: bool):
    """Coupling-loop task tables; entries are (B, i, j)."""
    def entry(i, j):
        return (cds.far(i, j), int(i), int(j))
    if blocked:
        return [
            tuple(entry(i, j) for (i, j) in block)
            for block in cds.far_blockset.blocks
        ]
    pairs = sorted(cds.factors.coupling)
    return [tuple(entry(i, j) for (i, j) in pairs)]


def _node_op(cds: CDSMatrix, v: int):
    """Encode one tree-loop op for node v."""
    t = cds.tree
    gen = cds.basis(v)
    if t.is_leaf(v):
        return (OP_LEAF, v, gen, int(t.start[v]), int(t.stop[v]), 0)
    lc, rc = int(t.lchild[v]), int(t.rchild[v])
    return (OP_INTERIOR, v, gen, lc, rc, int(cds.factors.srank(lc)))


def _coarsen_tables(cds: CDSMatrix, coarsenset: CoarsenSet, peel: bool):
    """Upward-pass tables: list of levels, each a list of sub-tree op tuples.

    With peeling, the last coarsen level is returned separately as a flat op
    list executed as straight-line code (standing in for the paper's
    parallel-BLAS peeled root iteration).
    """
    levels = [
        [tuple(_node_op(cds, v) for v in st.nodes) for st in cl.subtrees]
        for cl in coarsenset.levels
    ]
    peeled: tuple = ()
    if peel and levels:
        last = levels.pop()
        peeled = tuple(op for st in last for op in st)
    return levels, peeled


def _serial_tree_tables(cds: CDSMatrix):
    """Un-coarsened upward table: one subtree holding the whole post-order."""
    order = [
        v for v in cds.tree.postorder()
        if v != 0 and cds.factors.srank(v) > 0
    ]
    return [[tuple(_node_op(cds, v) for v in order)]], ()


# --------------------------------------------------------------------------
# Source emission.
# --------------------------------------------------------------------------

_PROLOGUE = '''\
def {name}(W, Y, pool=None):
    """Generated HMatrix-matrix multiplication (tree order).

    Lowering: near={near_mode}, coupling={far_mode}, tree={tree_mode},
    peeled_root={peel}.
    """
    Q = W.shape[1]
    T = [None] * NUM_NODES
    S = [None] * NUM_NODES
'''

_NEAR_BLOCKED = '''
    # Blocked loop over the near blockset: blocks write disjoint Y rows,
    # so the loop over blocks is fully parallel (no reductions).
    def _near_block(block):
        for D, si, ei, sj, ej in block:
            Y[si:ei] += D @ W[sj:ej]
    _run_parallel(pool, _near_block, NEAR_TABLE)
'''

_NEAR_SERIAL = '''
    # Serial reduction loop over near interactions.
    for block in NEAR_TABLE:
        for D, si, ei, sj, ej in block:
            Y[si:ei] += D @ W[sj:ej]
'''

_UP_SUBTREE_FN = '''
    def _up_subtree(ops):
        for op, v, G, a, b, rlc in ops:
            if op == OP_LEAF:
                T[v] = G.T @ W[a:b]
            else:
                Tl = T[a]; Tr = T[b]
                T[v] = G[:rlc].T @ Tl + G[rlc:].T @ Tr
'''

_UP_COARSENED = '''
    # Coarsened loop over the CTree (upward): sequential over coarsen
    # levels, parallel over load-balanced sub-trees inside each level.
    for level in UP_LEVELS:
        _run_parallel(pool, _up_subtree, level)
'''

_UP_PEELED = '''
    # Peeled root iteration: the top coarsen level has little task
    # parallelism, so its node GEMMs run as straight-line (parallel-BLAS)
    # calls instead of sub-tree tasks.
    _up_subtree(UP_PEELED)
'''

_COUPLING_BLOCKED = '''
    # Blocked loop over the far blockset (B blocks): same-output far
    # interactions share a block, so no reduction across blocks.
    def _coupling_block(block):
        for B, i, j in block:
            contrib = B @ T[j]
            if S[i] is None:
                S[i] = contrib
            else:
                S[i] += contrib
    _run_parallel(pool, _coupling_block, FAR_TABLE)
'''

_COUPLING_SERIAL = '''
    # Serial reduction loop over far interactions.
    for block in FAR_TABLE:
        for B, i, j in block:
            contrib = B @ T[j]
            if S[i] is None:
                S[i] = contrib
            else:
                S[i] += contrib
'''

_DOWN_SUBTREE_FN = '''
    def _down_subtree(ops):
        for op, v, G, a, b, rlc in ops:
            sv = S[v]
            if sv is None:
                continue
            if op == OP_LEAF:
                Y[a:b] += G @ sv
            else:
                top = G[:rlc] @ sv
                bot = G[rlc:] @ sv
                S[a] = top if S[a] is None else S[a] + top
                S[b] = bot if S[b] is None else S[b] + bot
'''

_DOWN_PEELED = '''
    # Peeled root iteration of the downward pass (runs first: top of tree).
    _down_subtree(DOWN_PEELED)
'''

_DOWN_COARSENED = '''
    # Coarsened downward pass: coarsen levels in reverse, sub-trees parallel,
    # node order inside each sub-tree reversed (parents before children).
    for level in DOWN_LEVELS:
        _run_parallel(pool, _down_subtree, level)
'''

_EPILOGUE = '''
    return Y
'''


def generate_evaluator(
    cds: CDSMatrix,
    ir: EvaluationIR | None = None,
    decision: LoweringDecision | None = None,
    block_threshold: int | None = None,
    far_block_threshold: int | None = None,
    coarsen_threshold: int = 4,
    low_level: bool = True,
    name: str = "hmatmul",
) -> GeneratedEvaluator:
    """Lower the IR and compile the specialized evaluator for ``cds``."""
    from repro.codegen.ir import build_ir

    if ir is None:
        ir = build_ir(
            cds.factors,
            coarsenset=cds.coarsenset,
            near_blockset=cds.near_blockset,
            far_blockset=cds.far_blockset,
        )
    if decision is None:
        decision = decide_lowering(
            ir,
            block_threshold=block_threshold,
            far_block_threshold=far_block_threshold,
            coarsen_threshold=coarsen_threshold,
            low_level=low_level,
        )

    near_table = _near_tables(cds, decision.block_near)
    far_table = _far_tables(cds, decision.block_far)
    if decision.coarsen:
        up_levels, up_peeled = _coarsen_tables(
            cds, cds.coarsenset, decision.peel_root
        )
    else:
        up_levels, up_peeled = _serial_tree_tables(cds)

    # Downward tables: reversed levels, reversed ops within each sub-tree.
    down_levels = [
        [tuple(reversed(st)) for st in level] for level in reversed(up_levels)
    ]
    down_peeled = tuple(reversed(up_peeled))

    # ---- assemble source ---------------------------------------------------
    parts = [
        _PROLOGUE.format(
            name=name,
            near_mode="blocked" if decision.block_near else "serial",
            far_mode="blocked" if decision.block_far else "serial",
            tree_mode="coarsened" if decision.coarsen else "serial",
            peel=decision.peel_root,
        )
    ]
    parts.append(_NEAR_BLOCKED if decision.block_near else _NEAR_SERIAL)
    parts.append(_UP_SUBTREE_FN)
    parts.append(_UP_COARSENED)
    if decision.peel_root and up_peeled:
        parts.append(_UP_PEELED)
    parts.append(_COUPLING_BLOCKED if decision.block_far else _COUPLING_SERIAL)
    parts.append(_DOWN_SUBTREE_FN)
    if decision.peel_root and down_peeled:
        parts.append(_DOWN_PEELED)
    parts.append(_DOWN_COARSENED)
    parts.append(_EPILOGUE)
    source = "".join(parts)

    env = {
        "NUM_NODES": cds.tree.num_nodes,
        "NEAR_TABLE": near_table,
        "FAR_TABLE": far_table,
        "UP_LEVELS": up_levels,
        "UP_PEELED": up_peeled,
        "DOWN_LEVELS": down_levels,
        "DOWN_PEELED": down_peeled,
        "OP_LEAF": OP_LEAF,
        "_run_parallel": _run_parallel,
    }
    code = compile(source, filename=f"<matrox-generated:{name}>", mode="exec")
    exec(code, env)
    return GeneratedEvaluator(
        source=source, decision=decision, cds=cds, _fn=env[name], name=name
    )


# --------------------------------------------------------------------------
# Batched (bucketed batched-GEMM) emission.
#
# The reduction loops (near, coupling) lower to *row panels*: all blocks
# sharing an output node concatenate into one wide generator panel, so the
# whole reduction for that node is a single 2-D GEMM against gathered
# operand rows, scattered back by a plain slice add (single writer, no
# atomics, no ``np.add.at``). The tree loops lower to *stacked GEMMs* over
# the CDS shape buckets, one ``np.matmul`` per (level, role, shape) group.
# Either way the per-block interpreter dispatch leaves the critical path.
# --------------------------------------------------------------------------

def _runs(segments: list[tuple[int, int]]):
    """Merge sorted ``[start, stop)`` segments into maximal contiguous runs.

    The gather of a row panel's operand rows then executes as a handful of
    ``memcpy``-speed slice copies instead of per-element fancy indexing —
    in tree order, a node's near/far neighbours are mostly contiguous.
    """
    merged: list[list[int]] = []
    for a, b in segments:
        if merged and merged[-1][1] == a:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return tuple((int(a), int(b)) for a, b in merged)


# A panel whose gather runs span a nearly-contiguous range is zero-padded
# to the full span instead: up to this much extra compute buys an operand
# that is a pure view of the source (no gather copy, no buffer traffic).
_PAD_LIMIT = 1.3


def _row_panel_layout(pairs, row_range, col_range, offsets):
    """Where each generator lands in the row panels of one reduction loop.

    ``row_range``/``col_range`` map a node id to its ``[start, stop)`` rows
    in the output/operand panel; the generator of pair ``(i, j)`` is the
    ``(len(row_range(i)), len(col_range(j)))`` block stored row-major at
    ``buf[offsets[(i, j)]:]`` (a CDS flat buffer). One entry per output
    node: ``(runs, k, si, ei, padded, blocks)`` — an ``(ei - si, k)``
    panel multiplying the operand rows of ``runs``, and each block's
    ``(column, width, buffer offset)``. A single gather run executes
    against a *view* of the operand; when the runs almost tile their
    span, the panel is zero-padded over the holes to force that case
    (``_PAD_LIMIT`` bounds the wasted flops), so a padded panel must
    start zeroed. Nothing is copied here: callers decide where the
    panels live (:func:`_row_panels`, or one arena in the compiled tier).
    """
    by_row: dict[int, list[int]] = {}
    for (i, j) in pairs:
        by_row.setdefault(i, []).append(j)
    layout = []
    for i, js in by_row.items():
        si, ei = row_range(i)
        cols = sorted(((col_range(j), j) for j in js),
                      key=lambda c: c[0][0])
        runs = _runs([seg for seg, _j in cols])
        k = sum(b - a for a, b in runs)
        lo, hi = runs[0][0], runs[-1][1]
        padded = len(runs) > 1 and hi - lo <= _PAD_LIMIT * k
        if padded:
            # Each block sits at its operand offset, holes stay 0.
            runs, k = ((lo, hi),), hi - lo
        blocks, col = [], 0
        for (a, b), j in cols:
            blocks.append((a - lo if padded else col, b - a, offsets[(i, j)]))
            col += b - a
        layout.append((runs, k, si, ei, padded, blocks))
    return layout


def _fill_panel(panel, blocks, buf) -> None:
    """Copy a panel's generators from the flat buffer into ``panel``."""
    m = panel.shape[0]
    for c0, n, off in blocks:
        panel[:, c0:c0 + n] = buf[off:off + m * n].reshape(m, n)


def _row_panels(layout, buf):
    """Materialize a layout as row panels: (panel, runs, K, si, ei)."""
    table = []
    for runs, k, si, ei, padded, blocks in layout:
        panel = (np.zeros if padded else np.empty)((ei - si, k))
        _fill_panel(panel, blocks, buf)
        table.append((panel, runs, k, si, ei))
    return tuple(table)


def _row_panel_tables(pairs, row_range, col_range, buf, offsets):
    """Row panels for one reduction loop: (panel, gather runs, K, si, ei)
    (see :func:`_row_panel_layout`)."""
    return _row_panels(
        _row_panel_layout(pairs, row_range, col_range, offsets), buf)


def _near_layout(cds: CDSMatrix):
    t = cds.tree
    rng = list(zip(t.start.tolist(), t.stop.tolist()))
    return _row_panel_layout(cds.near_visit_order(), rng.__getitem__,
                             rng.__getitem__, cds.near_offset)


def _batched_near_tables(cds: CDSMatrix):
    return _row_panels(_near_layout(cds), cds.near_buf)


def _rank_offsets(cds: CDSMatrix) -> tuple[dict[int, int], int]:
    """Row offsets of each basis node's skeleton block in the flat T/S panel."""
    off: dict[int, int] = {}
    total = 0
    for v in cds.basis_nodes():
        off[v] = total
        total += cds.factors.srank(v)
    return off, total


def _batched_tree_tables(cds: CDSMatrix, toff: dict[int, int],
                         stack=None):
    """Upward/downward level tables over the basis shape buckets.

    ``stack(bucket)`` returns the bucket's ``(batch, rows, cols)``
    generator stack (default: a fresh gather from the basis buffer).

    Upward entries are ``(G^T stack, gather, t_rows, from_w)`` executing
    ``T[t_rows] = (G^T @ src[gather]).reshape(-1, Q)``; downward entries
    are ``(G stack, s_rows, scatter, to_y)`` executing the transpose.
    Interior transfers read/write the children's skeleton rows in lc-then-rc
    order, which keeps a bucket well-shaped even when the lc/rc rank split
    differs between its members.
    """
    t = cds.tree
    srank = cds.factors.srank
    up_levels = []
    down_levels = []
    for level in cds.basis_level_buckets():
        ups, downs = [], []
        for bucket in level:
            G = (bucket.gather(cds.basis_buf) if stack is None
                 else stack(bucket))
            # Transposed *view* of the same stack (np.matmul lowers it to
            # BLAS transpose flags) — the generators are stored once.
            GT = G.transpose(0, 2, 1)
            if bucket.kind == "leaf":
                gather = np.stack([
                    np.arange(t.start[v], t.stop[v]) for v in bucket.keys
                ])
                from_w = True
            else:
                gather = np.stack([
                    np.concatenate([
                        toff[int(t.lchild[v])]
                        + np.arange(srank(int(t.lchild[v]))),
                        toff[int(t.rchild[v])]
                        + np.arange(srank(int(t.rchild[v]))),
                    ])
                    for v in bucket.keys
                ])
                from_w = False
            own = np.concatenate([
                toff[v] + np.arange(srank(v)) for v in bucket.keys
            ])
            ups.append((GT, gather, own, from_w))
            # Downward: same bucket transposed — read own rows, scatter to
            # the gather rows (W rows become Y rows, child T rows S rows).
            own2d = own.reshape(bucket.batch, -1)
            downs.append((G, own2d, gather.ravel(), from_w))
        up_levels.append(tuple(ups))
        down_levels.append(tuple(downs))
    return tuple(up_levels), tuple(reversed(down_levels))


def _far_layout(cds: CDSMatrix, toff: dict[int, int]):
    srank = cds.factors.srank
    rng = {v: (o, o + srank(v)) for v, o in toff.items()}
    return _row_panel_layout(cds.far_visit_order(), rng.__getitem__,
                             rng.__getitem__, cds.far_offset)


def _batched_far_tables(cds: CDSMatrix, toff: dict[int, int]):
    return _row_panels(_far_layout(cds, toff), cds.far_buf)


_BATCHED_SOURCE = '''\
def {name}(W, Y, pool=None):
    """Generated batched HMatrix-matrix multiplication (tree order).

    Lowering: near/coupling=batched row-panel 2-D GEMMs, tree=batched
    stacked GEMMs over the CDS shape buckets. The pool argument is
    accepted for interface parity and ignored: the fat kernels already
    saturate BLAS without task-level threading.
    """
    Q = W.shape[1]
    if Q == 0:
        return Y
    T = np.empty((RANK_ROWS, Q))
    S = np.zeros((RANK_ROWS, Q))
    buf = np.empty((MAX_K, Q))

    # Reduction loops: one wide row-panel GEMM per output node. A single
    # writer owns each output range, so the update is a plain slice add;
    # a single-run gather is a view of the source, scattered gathers copy
    # their few contiguous runs into the shared buffer.
    def _row_panels(panels, src, out):
        for panel, runs, k, si, ei in panels:
            if len(runs) == 1:
                out[si:ei] += panel @ src[runs[0][0]:runs[0][1]]
                continue
            gat = buf[:k]
            o = 0
            for a, b in runs:
                gat[o:o + b - a] = src[a:b]
                o += b - a
            out[si:ei] += panel @ gat

    # Near loop.
    _row_panels(NEAR_PANELS, W, Y)

    # Upward pass: levels bottom-up; inside a level every bucket is one
    # stacked GEMM writing disjoint skeleton rows of T.
    for level in UP_LEVELS:
        for GT, gather, t_rows, from_w in level:
            src = W if from_w else T
            T[t_rows] = np.matmul(GT, src[gather]).reshape(-1, Q)

    # Coupling loop, reducing into the S panel.
    _row_panels(FAR_PANELS, T, S)

    # Downward pass: levels top-down; leaf buckets scatter into Y rows,
    # interior buckets into the children's S rows (disjoint per level).
    for level in DOWN_LEVELS:
        for G, s_rows, scatter, to_y in level:
            P = np.matmul(G, S[s_rows]).reshape(-1, Q)
            if to_y:
                Y[scatter] += P
            else:
                S[scatter] += P
    return Y
'''


def generate_batched_evaluator(
    cds: CDSMatrix,
    ir: EvaluationIR | None = None,
    decision: LoweringDecision | None = None,
    q_chunk: int | None = 256,
    name: str = "hmatmul_batched",
) -> GeneratedEvaluator:
    """Compile the bucketed batched-GEMM evaluator for ``cds``.

    The returned evaluator computes exactly what :func:`generate_evaluator`
    computes, but executes one stacked ``np.matmul`` per shape bucket.
    ``q_chunk`` bounds the panel width of one pass (``None`` disables
    streaming and runs any Q in a single pass).
    """
    from repro.codegen.ir import build_ir
    from repro.codegen.lowering import decide_lowering, lower_batched

    if ir is None:
        ir = build_ir(
            cds.factors,
            coarsenset=cds.coarsenset,
            near_blockset=cds.near_blockset,
            far_blockset=cds.far_blockset,
        )
    if decision is None:
        decision = decide_lowering(ir)
    decision = lower_batched(ir, decision)

    toff, rank_rows = _rank_offsets(cds)
    up_levels, down_levels = _batched_tree_tables(cds, toff)
    near_panels = _batched_near_tables(cds)
    far_panels = _batched_far_tables(cds, toff)
    max_k = max(
        (e[2] for e in near_panels + far_panels if len(e[1]) > 1),
        default=1,
    )
    env = {
        "np": np,
        "RANK_ROWS": rank_rows,
        "MAX_K": max(max_k, 1),
        "NEAR_PANELS": near_panels,
        "FAR_PANELS": far_panels,
        "UP_LEVELS": up_levels,
        "DOWN_LEVELS": down_levels,
    }
    source = _BATCHED_SOURCE.format(name=name)
    code = compile(source, filename=f"<matrox-generated:{name}>", mode="exec")
    exec(code, env)
    return GeneratedEvaluator(
        source=source, decision=decision, cds=cds, _fn=env[name], name=name,
        q_chunk=q_chunk,
    )
