"""Compressed Data-Sparse (CDS) storage format.

CDS packs the submatrices into four flat buffers in *visit order*:

* ``basis_buf``  — leaf V and interior transfer E matrices, in coarsenset
  order (bottom coarsen level first, sub-tree by sub-tree, post-order inside
  each sub-tree) — the order of the upward pass;
* ``near_buf``   — D blocks in near-blockset order;
* ``far_buf``    — B blocks in far-blockset order.

Offsets are derived from sranks/block sizes, so a generator is addressed as
``buf[offset[key] : offset[key] + rows*cols].reshape(rows, cols)`` — these
reshapes are NumPy views into the flat buffer, never copies, preserving the
format's locality in the executor.

On top of the flat buffers the CDS also exposes *shape buckets*: generators
grouped by ``(rows, cols)`` in visit order, each bucket carrying the buffer
offsets of its members so the batched executor can gather one
``(batch, rows, cols)`` stack and run a single stacked GEMM per bucket
instead of one small GEMM per generator (see DESIGN.md section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.structure_sets import BlockSet, CoarsenSet
from repro.compression.factors import Factors


@dataclass
class ShapeBucket:
    """Generators of one ``(rows, cols)`` shape, in visit order.

    ``keys`` are node ids (basis buckets) or ``(i, j)`` pairs (near/far
    buckets); ``offsets[b]`` is the flat-buffer offset of ``keys[b]``. The
    gather indices are derived, not stored: member ``b`` occupies
    ``buf[offsets[b] : offsets[b] + rows*cols]``. ``kind`` distinguishes
    leaf from interior basis buckets (their batched ops differ).
    """

    shape: tuple[int, int]
    keys: list
    offsets: np.ndarray
    kind: str = ""

    @property
    def batch(self) -> int:
        return len(self.keys)

    def gather(self, buf: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Stack the bucket's generators as one ``(batch, rows, cols)`` array
        (written into ``out``, a contiguous array of that many values, when
        given)."""
        rows, cols = self.shape
        idx = self.offsets[:, None] + np.arange(rows * cols)
        if out is None:
            return buf[idx].reshape(self.batch, rows, cols)
        # mode="clip" lets take() write straight into ``out`` (the default
        # "raise" mode buffers it); the offsets are in range by layout.
        np.take(buf, idx, out=out.reshape(idx.shape), mode="clip")
        return out.reshape(self.batch, rows, cols)


@dataclass
class CDSMatrix:
    """The HMatrix in CDS layout, ready for the generated executor."""

    factors: Factors
    coarsenset: CoarsenSet
    near_blockset: BlockSet
    far_blockset: BlockSet

    basis_buf: np.ndarray = field(default_factory=lambda: np.empty(0))
    near_buf: np.ndarray = field(default_factory=lambda: np.empty(0))
    far_buf: np.ndarray = field(default_factory=lambda: np.empty(0))

    basis_offset: dict[int, int] = field(default_factory=dict)
    basis_shape: dict[int, tuple[int, int]] = field(default_factory=dict)
    near_offset: dict[tuple[int, int], int] = field(default_factory=dict)
    far_offset: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def tree(self):
        return self.factors.tree

    @property
    def dim(self) -> int:
        return self.factors.tree.num_points

    # -------------------------------------------------------------- accessors
    def basis(self, v: int) -> np.ndarray:
        """View of node v's V (leaf) or E (interior) generator."""
        rows, cols = self.basis_shape[v]
        off = self.basis_offset[v]
        return self.basis_buf[off : off + rows * cols].reshape(rows, cols)

    def near(self, i: int, j: int) -> np.ndarray:
        """View of the D block for near pair (i, j)."""
        t = self.tree
        rows, cols = t.node_size(i), t.node_size(j)
        off = self.near_offset[(i, j)]
        return self.near_buf[off : off + rows * cols].reshape(rows, cols)

    def far(self, i: int, j: int) -> np.ndarray:
        """View of the B block for far pair (i, j)."""
        rows = self.factors.srank(i)
        cols = self.factors.srank(j)
        off = self.far_offset[(i, j)]
        return self.far_buf[off : off + rows * cols].reshape(rows, cols)

    def total_bytes(self) -> int:
        return self.basis_buf.nbytes + self.near_buf.nbytes + self.far_buf.nbytes

    # ---------------------------------------------------------- shape buckets
    def near_buckets(self) -> list[ShapeBucket]:
        """Near (D) generators bucketed by block shape, in visit order."""
        t = self.tree
        return _bucketize(
            self.near_visit_order(),
            lambda p: (t.node_size(p[0]), t.node_size(p[1])),
            self.near_offset,
        )

    def far_buckets(self) -> list[ShapeBucket]:
        """Far (B) generators bucketed by coupling shape, in visit order."""
        srank = self.factors.srank
        return _bucketize(
            self.far_visit_order(),
            lambda p: (srank(p[0]), srank(p[1])),
            self.far_offset,
        )

    def basis_nodes(self) -> list[int]:
        """All non-root nodes carrying a basis generator, post-ordered."""
        return [
            v for v in self.tree.postorder()
            if v != 0 and self.factors.srank(v) > 0
        ]

    def basis_level_buckets(self) -> list[list[ShapeBucket]]:
        """Basis (V/E) buckets per tree level, deepest level first.

        Within a level, leaf and interior generators land in separate
        buckets (``kind`` is ``"leaf"`` or ``"interior"``): a leaf op reads
        point rows of W/Y while an interior op reads the children's
        skeleton rows, so they cannot share a stacked GEMM. Level grouping
        preserves the only real dependency (parent after children), letting
        the batched sweep replace the coarsen-set schedule wholesale.
        """
        t = self.tree
        by_level: dict[int, list[int]] = {}
        for v in self.basis_nodes():
            by_level.setdefault(int(t.level[v]), []).append(v)
        out: list[list[ShapeBucket]] = []
        for lvl in sorted(by_level, reverse=True):
            nodes = by_level[lvl]
            leaves = [v for v in nodes if t.is_leaf(v)]
            interior = [v for v in nodes if not t.is_leaf(v)]
            buckets = _bucketize(leaves, self.basis_shape.__getitem__,
                                 self.basis_offset, kind="leaf")
            buckets += _bucketize(interior, self.basis_shape.__getitem__,
                                  self.basis_offset, kind="interior")
            out.append(buckets)
        return out

    def bucket_occupancy(self) -> float:
        """Mean generators per shape bucket.

        High occupancy means few stacked GEMMs cover many generators, so
        batching amortises its gather/scatter; occupancy near 1 means the
        shapes are all distinct and batching degenerates to the serial
        loop. (The lowering gate uses the related, pre-CDS
        :func:`repro.codegen.lowering.batch_occupancy` fusion signal.)
        """
        buckets = self.near_buckets() + self.far_buckets()
        for level in self.basis_level_buckets():
            buckets += level
        if not buckets:
            return 0.0
        return sum(b.batch for b in buckets) / len(buckets)

    # ------------------------------------------------------------ trace hooks
    def basis_visit_order(self) -> list[int]:
        """Node ids in upward-pass (coarsenset) visit order."""
        return self.coarsenset.all_nodes()

    def near_visit_order(self) -> list[tuple[int, int]]:
        return self.near_blockset.all_interactions()

    def far_visit_order(self) -> list[tuple[int, int]]:
        return self.far_blockset.all_interactions()


def _bucketize(keys, shape_of, offsets, kind: str = "") -> list[ShapeBucket]:
    """Group ``keys`` by shape, preserving visit order inside each bucket."""
    grouped: dict[tuple[int, int], list] = {}
    for k in keys:
        grouped.setdefault(tuple(shape_of(k)), []).append(k)
    return [
        ShapeBucket(
            shape=shape,
            keys=members,
            offsets=np.asarray([offsets[k] for k in members], dtype=np.intp),
            kind=kind,
        )
        for shape, members in grouped.items()
    ]


def build_cds(
    factors: Factors,
    coarsenset: CoarsenSet,
    near_blockset: BlockSet,
    far_blockset: BlockSet,
) -> CDSMatrix:
    """Pack the generators into CDS buffers following the structure sets."""
    cds = CDSMatrix(
        factors=factors,
        coarsenset=coarsenset,
        near_blockset=near_blockset,
        far_blockset=far_blockset,
    )
    tree = factors.tree

    # --- basis buffer in coarsenset (upward visit) order -------------------
    order = coarsenset.all_nodes()
    # Nodes carrying a basis but not reached by the coarsenset (possible when
    # srank>0 nodes sit above the last coarsen level) are appended at the end.
    covered = set(order)
    extras = [
        v
        for v in range(tree.num_nodes)
        if factors.srank(v) > 0 and v not in covered
    ]
    sizes: list[int] = []
    for v in order + extras:
        gen = factors.leaf_basis[v] if tree.is_leaf(v) else factors.transfer[v]
        cds.basis_shape[v] = gen.shape
        sizes.append(gen.size)
    total = int(np.sum(sizes)) if sizes else 0
    cds.basis_buf = np.empty(total)
    off = 0
    for v in order + extras:
        gen = factors.leaf_basis[v] if tree.is_leaf(v) else factors.transfer[v]
        cds.basis_offset[v] = off
        cds.basis_buf[off : off + gen.size] = gen.ravel()
        off += gen.size

    # --- near buffer in near-blockset order ---------------------------------
    near_order = near_blockset.all_interactions()
    _pack_pairs(cds.near_offset, near_order, factors.near_blocks, "near", cds)

    # --- far buffer in far-blockset order ------------------------------------
    far_order = far_blockset.all_interactions()
    _pack_pairs(cds.far_offset, far_order, factors.coupling, "far", cds)
    return cds


def _pack_pairs(offsets, order, blocks, which, cds) -> None:
    missing = [p for p in order if p not in blocks]
    if missing:
        raise ValueError(f"{which} blockset references missing blocks: {missing[:5]}")
    in_order = set(order)
    extra = [p for p in blocks if p not in in_order]
    full_order = list(order) + sorted(extra)
    total = int(sum(blocks[p].size for p in full_order))
    buf = np.empty(total)
    off = 0
    for p in full_order:
        b = blocks[p]
        offsets[p] = off
        buf[off : off + b.size] = b.ravel()
        off += b.size
    if which == "near":
        cds.near_buf = buf
    else:
        cds.far_buf = buf
