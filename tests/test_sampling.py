"""Unit tests for the sampling module (kNN, rp-trees, importance, plans)."""

import numpy as np
import pytest

from repro.sampling import (
    build_sampling_plan,
    exact_knn,
    importance_sample,
    node_neighbor_lists,
    rptree_knn,
)
from repro.sampling.rptree import knn_recall
from repro.tree import build_cluster_tree


class TestExactKnn:
    def test_matches_bruteforce(self, rng):
        pts = rng.random((60, 3))
        knn = exact_knn(pts, k=5)
        for i in range(60):
            d = np.linalg.norm(pts - pts[i], axis=1)
            d[i] = np.inf
            expect = set(np.argsort(d)[:5].tolist())
            assert set(knn[i].tolist()) == expect

    def test_excludes_self(self, rng):
        pts = rng.random((40, 2))
        knn = exact_knn(pts, k=3)
        for i in range(40):
            assert i not in knn[i]

    def test_chunking_consistent(self, rng):
        pts = rng.random((100, 2))
        a = exact_knn(pts, k=4, chunk=7)
        b = exact_knn(pts, k=4, chunk=1000)
        np.testing.assert_array_equal(a, b)

    def test_chunking_consistent_under_ties(self):
        # A regular integer lattice: distances are exact, and every
        # interior point has 4 neighbours at the same distance, so the
        # answer hinges on tie-breaking, which must not depend on how the
        # query rows are chunked.
        pts = np.indices((32, 40)).reshape(2, -1).T.astype(float)
        n = len(pts)
        want = exact_knn(pts, k=6, chunk=n)
        for chunk in (1, 7, 256):
            np.testing.assert_array_equal(exact_knn(pts, k=6, chunk=chunk), want)
        np.testing.assert_array_equal(exact_knn(pts, k=6), want)

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_chunk_must_be_positive(self, rng, chunk):
        with pytest.raises(ValueError):
            exact_knn(rng.random((10, 2)), k=2, chunk=chunk)

    def test_k_bounds(self, rng):
        pts = rng.random((10, 2))
        with pytest.raises(ValueError):
            exact_knn(pts, k=0)
        with pytest.raises(ValueError):
            exact_knn(pts, k=10)

    def test_sorted_by_distance(self, rng):
        pts = rng.random((50, 2))
        knn = exact_knn(pts, k=6)
        for i in range(50):
            d = np.linalg.norm(pts[knn[i]] - pts[i], axis=1)
            assert (np.diff(d) >= -1e-12).all()


class TestRptreeKnn:
    def test_high_recall_on_clustered_data(self, points_hd):
        exact = exact_knn(points_hd, k=8)
        approx = rptree_knn(points_hd, k=8, n_trees=6, leaf_size=64, seed=0)
        assert knn_recall(approx, exact) > 0.6

    def test_more_trees_improve_recall(self, rng):
        pts = rng.random((400, 8))
        exact = exact_knn(pts, k=6)
        r1 = knn_recall(rptree_knn(pts, k=6, n_trees=1, seed=0), exact)
        r8 = knn_recall(rptree_knn(pts, k=6, n_trees=8, seed=0), exact)
        assert r8 >= r1

    def test_no_self_and_no_invalid(self, rng):
        pts = rng.random((200, 5))
        knn = rptree_knn(pts, k=4, seed=0)
        assert (knn >= 0).all() and (knn < 200).all()
        for i in range(200):
            assert i not in knn[i]

    def test_deterministic_given_seed(self, rng):
        pts = rng.random((150, 4))
        a = rptree_knn(pts, k=5, seed=42)
        b = rptree_knn(pts, k=5, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_duplicate_points_handled(self):
        pts = np.ones((30, 3))
        knn = rptree_knn(pts, k=3, seed=0)
        assert knn.shape == (30, 3)
        assert (knn >= 0).all()


class TestNodeNeighborLists:
    def test_excludes_own_points(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        knn = exact_knn(points_2d, k=5)
        lists = node_neighbor_lists(tree, knn)
        for v in range(tree.num_nodes):
            own = set(tree.node_point_indices(v).tolist())
            assert own.isdisjoint(lists[v].tolist())

    def test_root_list_empty(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        knn = exact_knn(points_2d, k=5)
        lists = node_neighbor_lists(tree, knn)
        assert len(lists[0]) == 0  # all points belong to the root

    def test_candidates_are_members_neighbors(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        knn = exact_knn(points_2d, k=5)
        lists = node_neighbor_lists(tree, knn)
        leaf = int(tree.leaves[0])
        all_nbrs = set(knn[tree.node_point_indices(leaf)].ravel().tolist())
        assert set(lists[leaf].tolist()) <= all_nbrs


class TestImportanceSample:
    def test_returns_all_when_small(self):
        cand = np.array([5, 3, 9])
        out = importance_sample(cand, None, 10, rng=0)
        np.testing.assert_array_equal(out, [3, 5, 9])

    def test_respects_size(self, rng):
        cand = np.arange(100)
        out = importance_sample(cand, None, 17, rng=0)
        assert len(out) == 17
        assert len(np.unique(out)) == 17

    def test_weight_bias(self):
        cand = np.arange(50)
        w = np.zeros(50)
        w[:5] = 1.0  # only the first five can be drawn
        out = importance_sample(cand, w, 5, rng=0)
        assert set(out.tolist()) == {0, 1, 2, 3, 4}

    def test_zero_weights_fall_back_to_uniform(self):
        out = importance_sample(np.arange(20), np.zeros(20), 6, rng=0)
        assert len(out) == 6

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            importance_sample(np.arange(5), np.array([-1, 1, 1, 1, 1.0]), 2)


class TestSamplingPlan:
    def test_plan_covers_all_nodes(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        assert set(plan.samples) == set(range(tree.num_nodes))

    def test_samples_outside_node(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        for v in range(tree.num_nodes):
            own = set(tree.node_point_indices(v).tolist())
            assert own.isdisjoint(plan.for_node(v).tolist())

    def test_root_has_no_samples(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        assert plan.num_samples(0) == 0

    def test_budget_respected(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, num_samples=20, seed=0)
        for v in range(1, tree.num_nodes):
            assert plan.num_samples(v) <= 20

    def test_kernel_independent(self, points_2d):
        """The plan must depend only on points/tree/seed (reuse guarantee)."""
        tree = build_cluster_tree(points_2d, leaf_size=32)
        p1 = build_sampling_plan(tree, k=8, seed=3)
        p2 = build_sampling_plan(tree, k=8, seed=3)
        for v in range(tree.num_nodes):
            np.testing.assert_array_equal(p1.for_node(v), p2.for_node(v))

    def test_rptree_path_used_for_large_n(self, rng):
        pts = rng.random((500, 6))
        tree = build_cluster_tree(pts, leaf_size=64, seed=0)
        plan = build_sampling_plan(tree, k=4, exact_threshold=100, seed=0)
        assert plan.method == "rptree"

    def test_stats_populated(self, points_2d):
        tree = build_cluster_tree(points_2d, leaf_size=32)
        plan = build_sampling_plan(tree, k=8, seed=0)
        assert plan.stats["knn_method"] == "exact"
        assert plan.stats["mean_samples"] > 0
