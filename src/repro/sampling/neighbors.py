"""Exact k-NN (small N) and per-node neighbour-list merging."""

from __future__ import annotations

import numpy as np

from repro.kernels.distance import pairwise_sq_distances
from repro.tree.cluster_tree import ClusterTree
from repro.utils.validation import check_points, require


def exact_knn(points, k: int, chunk: int = 2048) -> np.ndarray:
    """Exact k-nearest-neighbour indices (excluding self), shape (N, k).

    Chunked over query rows (``chunk`` rows at a time) to bound the
    distance block; used directly for small N and as ground truth for the
    rp-tree tests. Ties are broken the same way whatever ``chunk`` is,
    but BLAS may round a few distances differently for different chunk
    shapes, so a near-tie can still resolve differently.
    """
    pts = check_points(points)
    n = len(pts)
    require(1 <= k < n, f"k must be in [1, N-1], got k={k}, N={n}")
    require(chunk >= 1, f"chunk must be >= 1, got {chunk}")
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]
        d2 = pairwise_sq_distances(block, pts)
        # Exclude self-matches by pushing the diagonal to +inf.
        rows = np.arange(len(block))
        d2[rows, start + rows] = np.inf
        # argpartition then sort the k winners for deterministic order.
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part_d = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(part_d, axis=1, kind="stable")
        out[start : start + len(block)] = np.take_along_axis(part, order, axis=1)
    return out


def node_neighbor_lists(tree: ClusterTree, knn: np.ndarray) -> dict[int, np.ndarray]:
    """Per-node candidate sample lists from the point-level k-NN table.

    For node ``v``, the candidates are the union of its member points'
    neighbours minus the node's own points — i.e. the *near field just
    outside the node*, which importance sampling then thins. Indices are in
    original (input) point order, matching ``knn``.
    """
    lists: dict[int, np.ndarray] = {}
    n = tree.num_points
    member = np.zeros(n, dtype=bool)
    for v in range(tree.num_nodes):
        own = tree.node_point_indices(v)
        member[own] = True
        cand = np.unique(knn[own].ravel())
        cand = cand[~member[cand]]
        lists[v] = cand
        member[own] = False
    return lists
