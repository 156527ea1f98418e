"""Unit tests for the CDS and tree-based storage formats."""

import numpy as np
import pytest

from repro.analysis import build_blockset, build_coarsenset
from repro.analysis.structure_sets import BlockSet
from repro.compression import compress
from repro.storage import build_cds, build_treebased


@pytest.fixture(scope="module")
def packed(points_2d, gaussian_kernel):
    res = compress(points_2d, gaussian_kernel, structure="h2-geometric",
                   tau=0.65, bacc=1e-5, leaf_size=32, seed=0)
    cs = build_coarsenset(res.tree, res.sranks, p=4, agg=2)
    nb = build_blockset(res.htree, 2, kind="near")
    fb = build_blockset(res.htree, 4, kind="far")
    cds = build_cds(res.factors, cs, nb, fb)
    return res, cds


class TestCDS:
    def test_basis_roundtrip(self, packed):
        res, cds = packed
        tree = res.tree
        for v in cds.basis_offset:
            expect = (res.factors.leaf_basis[v] if tree.is_leaf(v)
                      else res.factors.transfer[v])
            np.testing.assert_array_equal(cds.basis(v), expect)

    def test_near_roundtrip(self, packed):
        res, cds = packed
        for pair, D in res.factors.near_blocks.items():
            np.testing.assert_array_equal(cds.near(*pair), D)

    def test_far_roundtrip(self, packed):
        res, cds = packed
        for pair, B in res.factors.coupling.items():
            np.testing.assert_array_equal(cds.far(*pair), B)

    def test_accessors_return_views_not_copies(self, packed):
        _res, cds = packed
        v = next(iter(cds.basis_offset))
        view = cds.basis(v)
        assert view.base is cds.basis_buf

    def test_visit_order_matches_buffer_order(self, packed):
        """CDS property: walking the coarsenset touches the basis buffer in
        monotonically increasing offsets (no jumping back)."""
        _res, cds = packed
        offsets = [cds.basis_offset[v] for v in cds.basis_visit_order()]
        assert offsets == sorted(offsets)

    def test_near_visit_order_contiguous(self, packed):
        _res, cds = packed
        offsets = [cds.near_offset[p] for p in cds.near_visit_order()]
        assert offsets == sorted(offsets)

    def test_far_visit_order_contiguous(self, packed):
        _res, cds = packed
        offsets = [cds.far_offset[p] for p in cds.far_visit_order()]
        assert offsets == sorted(offsets)

    def test_buffers_fully_packed_no_gaps(self, packed):
        res, cds = packed
        used = sum(
            np.prod(cds.basis_shape[v]) for v in cds.basis_offset
        )
        assert used == len(cds.basis_buf)
        near_used = sum(D.size for D in res.factors.near_blocks.values())
        assert near_used == len(cds.near_buf)
        far_used = sum(B.size for B in res.factors.coupling.values())
        assert far_used == len(cds.far_buf)

    def test_total_bytes_matches_factor_bytes(self, packed):
        res, cds = packed
        assert cds.total_bytes() == res.factors.memory_bytes()

    def test_every_basis_node_present(self, packed):
        res, cds = packed
        for v in range(res.tree.num_nodes):
            if res.factors.srank(v) > 0:
                assert v in cds.basis_offset


def _reference_cds(factors, coarsenset, near_blockset, far_blockset):
    """The CDS packing written out longhand, as a fixed reference: basis
    in coarsenset order then uncovered nodes by id; near/far blocks in
    blockset order, then pairs the blockset misses, sorted."""
    tree = factors.tree
    order = coarsenset.all_nodes()
    order += [v for v in range(tree.num_nodes)
              if factors.srank(v) > 0 and v not in order]
    gens = {v: (factors.leaf_basis[v] if tree.is_leaf(v)
                else factors.transfer[v]) for v in order}
    out = {"basis_shape": {v: g.shape for v, g in gens.items()}}
    out["basis_buf"], out["basis_offset"] = _reference_pack(order, gens)
    for which, bs, blocks in (("near", near_blockset, factors.near_blocks),
                              ("far", far_blockset, factors.coupling)):
        order = bs.all_interactions()
        extra = [p for p in blocks if p not in order]
        out[f"{which}_buf"], out[f"{which}_offset"] = _reference_pack(
            order + sorted(extra), blocks)
    return out


def _reference_pack(order, gens):
    offsets, parts, off = {}, [], 0
    for key in order:
        offsets[key] = off
        parts.append(gens[key].ravel())
        off += gens[key].size
    buf = np.concatenate(parts) if parts else np.empty(0)
    return buf, offsets


def _assert_matches_reference(cds, ref):
    for buf in ("basis_buf", "near_buf", "far_buf"):
        got = getattr(cds, buf)
        assert got.dtype == ref[buf].dtype
        assert got.tobytes() == ref[buf].tobytes(), buf
    for offsets in ("basis_offset", "near_offset", "far_offset"):
        got = getattr(cds, offsets)
        assert got == ref[offsets], offsets
        assert list(got) == list(ref[offsets]), offsets  # packing order
    assert cds.basis_shape == ref["basis_shape"]


def _drop_every(bs, stride):
    """A copy of ``bs`` missing every ``stride``-th interaction."""
    kept = [[p for n, p in enumerate(block) if n % stride]
            for block in bs.blocks]
    dropped = [p for block in bs.blocks
               for n, p in enumerate(block) if not n % stride]
    return (BlockSet(blocks=[b for b in kept if b],
                     blocksize=bs.blocksize, kind=bs.kind), dropped)


class TestBuildCDSPacking:
    """``build_cds`` output is pinned byte-for-byte to the reference."""

    def test_matches_reference_packing(self, packed):
        res, cds = packed
        ref = _reference_cds(res.factors, cds.coarsenset,
                             cds.near_blockset, cds.far_blockset)
        _assert_matches_reference(cds, ref)

    def test_pairs_outside_blockset_packed_last_sorted(self, packed):
        res, cds = packed
        near_bs, near_extra = _drop_every(cds.near_blockset, 3)
        far_bs, far_extra = _drop_every(cds.far_blockset, 2)
        assert near_extra and far_extra
        got = build_cds(res.factors, cds.coarsenset, near_bs, far_bs)
        _assert_matches_reference(
            got, _reference_cds(res.factors, cds.coarsenset, near_bs,
                                far_bs))
        for offsets, bs, extra in ((got.near_offset, near_bs, near_extra),
                                   (got.far_offset, far_bs, far_extra)):
            tail = list(offsets)[bs.num_interactions():]
            assert tail == sorted(extra)
            assert (min(offsets[p] for p in extra)
                    > max(offsets[p] for p in bs.all_interactions()))

    def test_missing_block_rejected(self, packed):
        res, cds = packed
        bogus = BlockSet(blocks=[[(-1, -1)]], blocksize=1, kind="near")
        with pytest.raises(ValueError, match="missing blocks"):
            build_cds(res.factors, cds.coarsenset, bogus, cds.far_blockset)


class TestTreeBased:
    def test_roundtrip(self, packed):
        res, _ = packed
        tb = build_treebased(res.factors)
        for v, arr in tb.basis.items():
            expect = (res.factors.leaf_basis[v] if res.tree.is_leaf(v)
                      else res.factors.transfer[v])
            np.testing.assert_array_equal(arr, expect)

    def test_separate_allocations(self, packed):
        res, _ = packed
        tb = build_treebased(res.factors)
        arrays = list(tb.basis.values())
        assert arrays[0].base is None  # owns its memory

    def test_allocation_order_is_construction_order(self, packed):
        """TB allocates basis in BFS node order, then near, then far —
        the compression order, NOT the evaluation visit order."""
        res, _ = packed
        tb = build_treebased(res.factors)
        kinds = [k for k, _ in tb.allocation_order]
        assert kinds == sorted(kinds, key=["basis", "far", "near"].index) or (
            kinds.index("near") < kinds.index("far")
            if "near" in kinds and "far" in kinds else True
        )
        basis_ids = [key for k, key in tb.allocation_order if k == "basis"]
        assert basis_ids == sorted(basis_ids)

    def test_same_bytes_as_cds(self, packed):
        res, cds = packed
        tb = build_treebased(res.factors)
        assert tb.total_bytes() == cds.total_bytes()
