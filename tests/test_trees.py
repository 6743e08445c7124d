"""Unit tests for rooted forests and LCA indexing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, ParameterError
from repro.bfs.sequential import bfs
from repro.core.ldd_bfs import partition_bfs
from repro.graphs.generators import binary_tree, grid_2d
from repro.trees.lca import LCAIndex
from repro.trees.structure import RootedForest, bfs_forest_from_decomposition


def path_forest(n: int) -> RootedForest:
    """0 <- 1 <- 2 <- ... <- n-1 chain rooted at 0."""
    parent = np.arange(-1, n - 1)
    return RootedForest.from_parents(parent)


class TestRootedForest:
    def test_depths_on_chain(self):
        f = path_forest(5)
        np.testing.assert_array_equal(f.depth, [0, 1, 2, 3, 4])

    def test_roots_and_is_tree(self):
        f = path_forest(4)
        np.testing.assert_array_equal(f.roots(), [0])
        assert f.is_tree()
        two = RootedForest.from_parents(np.asarray([-1, 0, -1, 2]))
        assert not two.is_tree()
        assert two.num_edges() == 2

    def test_cycle_detected(self):
        with pytest.raises(GraphError, match="cycle"):
            RootedForest.from_parents(np.asarray([1, 2, 0]))

    def test_self_parent_rejected(self):
        with pytest.raises(GraphError, match="self-parent"):
            RootedForest.from_parents(np.asarray([0]))

    def test_out_of_range_parent(self):
        with pytest.raises(GraphError):
            RootedForest.from_parents(np.asarray([5]))

    def test_weighted_depth(self):
        parent = np.asarray([-1, 0, 1])
        weight = np.asarray([0.0, 2.0, 3.0])
        f = RootedForest(parent=parent, edge_weight=weight)
        np.testing.assert_allclose(f.weighted_depth(), [0.0, 2.0, 5.0])

    def test_topological_order_parents_first(self):
        f = RootedForest.from_parents(np.asarray([-1, 0, 0, 1, 1, 2]))
        order = f.topological_order()
        pos = np.empty(6, dtype=np.int64)
        pos[order] = np.arange(6)
        for v in range(6):
            if f.parent[v] != -1:
                assert pos[f.parent[v]] < pos[v]

    def test_to_graph(self):
        f = RootedForest.from_parents(np.asarray([-1, 0, 0]))
        g = f.to_graph()
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_path_to_root(self):
        f = path_forest(4)
        assert f.path_to_root(3) == [3, 2, 1, 0]
        assert f.path_to_root(0) == [0]


class TestBFSForestFromDecomposition:
    def test_structure_matches_pieces(self, medium_grid):
        d, _ = partition_bfs(medium_grid, 0.15, seed=0)
        f = bfs_forest_from_decomposition(d)
        # Depth in the forest equals the recorded hop distances.
        np.testing.assert_array_equal(f.depth, d.hops)
        # Roots are exactly the centers.
        np.testing.assert_array_equal(np.sort(f.roots()), d.centers)

    def test_parents_stay_in_piece(self, medium_grid):
        d, _ = partition_bfs(medium_grid, 0.2, seed=1)
        f = bfs_forest_from_decomposition(d)
        child = np.flatnonzero(f.parent != -1)
        np.testing.assert_array_equal(
            d.center[child], d.center[f.parent[child]]
        )

    def test_parents_are_graph_edges(self, small_grid):
        d, _ = partition_bfs(small_grid, 0.3, seed=2)
        f = bfs_forest_from_decomposition(d)
        for v in np.flatnonzero(f.parent != -1):
            assert small_grid.has_edge(int(v), int(f.parent[v]))


class TestLCAIndex:
    def test_chain_lca(self):
        f = path_forest(6)
        idx = LCAIndex(f)
        assert idx.lca(5, 3)[0] == 3
        assert idx.lca(0, 5)[0] == 0
        assert idx.lca(4, 4)[0] == 4

    def test_binary_tree_lca_brute_force(self):
        # Complete binary tree; compare against path-walking LCA.
        g = binary_tree(4)
        res = bfs(g, 0)
        f = RootedForest.from_parents(res.parent)
        idx = LCAIndex(f)
        rng = np.random.default_rng(0)
        for _ in range(60):
            u, v = rng.integers(0, g.num_vertices, size=2)
            pu = set(f.path_to_root(int(u)))
            walker = int(v)
            while walker not in pu:
                walker = int(f.parent[walker])
            assert idx.lca(int(u), int(v))[0] == walker

    def test_cross_tree_lca_is_minus_one(self):
        f = RootedForest.from_parents(np.asarray([-1, 0, -1, 2]))
        idx = LCAIndex(f)
        assert idx.lca(1, 3)[0] == -1
        assert np.isinf(idx.tree_distance(1, 3)[0])

    def test_tree_distance_matches_bfs_in_tree(self):
        g = grid_2d(6, 6)
        res = bfs(g, 0)
        f = RootedForest.from_parents(res.parent)
        tree_graph = f.to_graph()
        idx = LCAIndex(f)
        rng = np.random.default_rng(1)
        us = rng.integers(0, 36, size=40)
        vs = rng.integers(0, 36, size=40)
        got = idx.tree_distance(us, vs)
        for u, v, d in zip(us, vs, got):
            assert d == bfs(tree_graph, int(u)).dist[int(v)]

    def test_weighted_tree_distance(self):
        parent = np.asarray([-1, 0, 1, 1])
        weight = np.asarray([0.0, 2.0, 4.0, 8.0])
        idx = LCAIndex(RootedForest(parent=parent, edge_weight=weight))
        assert idx.tree_distance(2, 3, weighted=True)[0] == pytest.approx(12.0)
        assert idx.tree_distance(0, 2, weighted=True)[0] == pytest.approx(6.0)

    def test_batch_shape_validation(self):
        idx = LCAIndex(path_forest(4))
        with pytest.raises(ParameterError):
            idx.lca(np.asarray([1, 2]), np.asarray([1]))
        with pytest.raises(ParameterError):
            idx.lca(0, 9)

    def test_empty_forest_rejected(self):
        with pytest.raises(ParameterError):
            LCAIndex(RootedForest.from_parents(np.zeros(0, dtype=np.int64)))
