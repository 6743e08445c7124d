"""Unit tests for the Dijkstra engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.bfs.dijkstra import (
    dijkstra,
    dijkstra_multisource,
    shifted_integer_dijkstra,
)
from repro.bfs.sequential import bfs
from repro.graphs.generators import erdos_renyi, grid_2d, path_graph
from repro.graphs.weighted import uniform_weights, weighted_from_edges


class TestWeightedDijkstra:
    def test_weighted_path(self):
        g = weighted_from_edges(
            4,
            np.asarray([[0, 1], [1, 2], [2, 3]]),
            np.asarray([1.0, 5.0, 2.0]),
        )
        res = dijkstra(g, 0)
        np.testing.assert_allclose(res.dist, [0.0, 1.0, 6.0, 8.0])
        np.testing.assert_array_equal(res.parent, [-1, 0, 1, 2])

    def test_prefers_lighter_detour(self):
        # 0-2 direct weight 10; 0-1-2 total 3.
        g = weighted_from_edges(
            3,
            np.asarray([[0, 2], [0, 1], [1, 2]]),
            np.asarray([10.0, 1.0, 2.0]),
        )
        res = dijkstra(g, 0)
        assert res.dist[2] == pytest.approx(3.0)
        assert res.parent[2] == 1

    def test_unit_weights_match_bfs(self):
        g = erdos_renyi(50, 0.08, seed=2)
        wd = dijkstra(uniform_weights(g), 0)
        bd = bfs(g, 0)
        reached = bd.dist >= 0
        np.testing.assert_allclose(wd.dist[reached], bd.dist[reached])
        assert np.all(np.isinf(wd.dist[~reached]))

    def test_unweighted_graph_gets_unit_lengths(self):
        g = path_graph(4)
        res = dijkstra(g, 0)
        np.testing.assert_allclose(res.dist, [0, 1, 2, 3])

    def test_multisource_with_init_dist(self):
        g = path_graph(5)
        res = dijkstra_multisource(
            g,
            np.asarray([0, 4]),
            init_dist=np.asarray([0.0, 10.0]),
        )
        # Source 4's head start of 10 means source 0 wins everywhere.
        np.testing.assert_array_equal(res.source[:4], [0, 0, 0, 0])
        assert res.dist[4] == pytest.approx(4.0)

    def test_tie_breaks_by_smaller_source(self):
        g = path_graph(5)
        res = dijkstra_multisource(g, np.asarray([4, 0]))
        assert res.source[2] == 0  # equidistant, smaller id wins

    def test_validation(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            dijkstra_multisource(g, np.asarray([9]))
        with pytest.raises(ParameterError):
            dijkstra_multisource(
                g, np.asarray([0]), init_dist=np.asarray([0.0, 1.0])
            )

    def test_against_scipy(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        rng = np.random.default_rng(7)
        g0 = erdos_renyi(40, 0.12, seed=7)
        weights = rng.uniform(0.5, 3.0, size=g0.num_edges)
        g = weighted_from_edges(40, g0.edge_array(), weights)
        mat = csr_matrix(
            (g.weights, g.indices, g.indptr), shape=(40, 40)
        )
        expected = scipy_dijkstra(mat, directed=False, indices=0)
        res = dijkstra(g, 0)
        np.testing.assert_allclose(res.dist, expected)


class TestShiftedIntegerDijkstra:
    def test_zero_starts_nearest_center_semantics(self):
        g = path_graph(5)
        start = np.asarray([0, 9, 9, 9, 0], dtype=np.int64)
        key = np.asarray([0.1, 0.9, 0.9, 0.9, 0.2])
        res = shifted_integer_dijkstra(g, start, key)
        # Ends are centers; middle tied at round 2, key 0.1 < 0.2 so center 0.
        np.testing.assert_array_equal(res.center, [0, 0, 0, 4, 4])

    def test_hops_are_graph_distances_from_center(self):
        g = grid_2d(5, 5)
        rng = np.random.default_rng(1)
        start = rng.integers(0, 6, size=25).astype(np.int64)
        key = rng.random(25)
        res = shifted_integer_dijkstra(g, start, key)
        for v in range(25):
            c = int(res.center[v])
            assert res.hops[v] == bfs(g, c).dist[v]

    def test_length_validation(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            shifted_integer_dijkstra(
                g, np.zeros(2, dtype=np.int64), np.zeros(3)
            )

    def test_work_positive_and_bounded(self):
        g = grid_2d(4, 4)
        res = shifted_integer_dijkstra(
            g, np.zeros(16, dtype=np.int64), np.random.default_rng(0).random(16)
        )
        assert res.work >= g.num_vertices
