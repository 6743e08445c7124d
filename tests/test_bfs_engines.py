"""Unit tests for the BFS engines (sequential, frontier)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.bfs.frontier import frontier_bfs, gather_frontier_arcs
from repro.bfs.sequential import (
    bfs,
    eccentricity,
    graph_diameter_lb,
    multi_source_bfs,
)
from repro.graphs.build import from_edges
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_2d,
    hypercube,
    path_graph,
)


class TestSequentialBFS:
    def test_path_distances(self):
        res = bfs(path_graph(5), 0)
        np.testing.assert_array_equal(res.dist, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(res.parent, [-1, 0, 1, 2, 3])

    def test_source_out_of_range(self):
        with pytest.raises(ParameterError):
            bfs(path_graph(3), 5)

    def test_unreached_marked(self, two_triangles):
        res = bfs(two_triangles, 0)
        assert np.all(res.dist[:3] >= 0)
        assert np.all(res.dist[3:] == -1)
        assert np.all(res.source[3:] == -1)

    def test_multi_source(self):
        g = path_graph(7)
        res = multi_source_bfs(g, np.asarray([0, 6]))
        np.testing.assert_array_equal(res.dist, [0, 1, 2, 3, 2, 1, 0])
        assert res.source[1] == 0 and res.source[5] == 6

    def test_work_counts_every_arc_once(self):
        g = grid_2d(6, 6)
        res = bfs(g, 0)
        assert res.work == g.num_arcs

    def test_num_rounds_is_levels(self):
        res = bfs(path_graph(4), 0)
        assert res.num_rounds == 4  # distances 0..3

    def test_parent_is_one_closer(self):
        g = erdos_renyi(60, 0.08, seed=1)
        res = bfs(g, 0)
        for v in range(60):
            if res.dist[v] > 0:
                assert res.dist[res.parent[v]] == res.dist[v] - 1

    def test_eccentricity(self):
        assert eccentricity(path_graph(9), 0) == 8
        assert eccentricity(path_graph(9), 4) == 4
        assert eccentricity(complete_graph(5), 2) == 1

    def test_diameter_lb(self):
        assert graph_diameter_lb(path_graph(10)) == 9
        assert graph_diameter_lb(cycle_graph(10)) == 5
        assert graph_diameter_lb(from_edges(1, [])) == 0
        assert graph_diameter_lb(from_edges(0, [])) == 0


class TestGatherFrontierArcs:
    def test_gather_matches_adjacency(self):
        g = grid_2d(4, 4)
        frontier = np.asarray([0, 5, 15])
        src, dst = gather_frontier_arcs(g, frontier)
        expected_src = np.concatenate(
            [np.full(g.degree(v), v) for v in frontier]
        )
        expected_dst = np.concatenate([g.neighbors(v) for v in frontier])
        np.testing.assert_array_equal(src, expected_src)
        np.testing.assert_array_equal(dst, expected_dst)

    def test_empty_frontier(self):
        g = path_graph(3)
        src, dst = gather_frontier_arcs(g, np.asarray([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0

    def test_isolated_vertex_frontier(self):
        g = from_edges(3, [(0, 1)])
        src, dst = gather_frontier_arcs(g, np.asarray([2]))
        assert src.size == 0


class TestFrontierBFS:
    @pytest.mark.parametrize(
        "graph_fn",
        [
            lambda: path_graph(20),
            lambda: cycle_graph(15),
            lambda: grid_2d(7, 9),
            lambda: hypercube(5),
            lambda: erdos_renyi(80, 0.05, seed=3),
            lambda: complete_graph(9),
        ],
    )
    def test_distances_match_sequential(self, graph_fn):
        g = graph_fn()
        seq = bfs(g, 0)
        par = frontier_bfs(g, np.asarray([0]))
        np.testing.assert_array_equal(seq.dist, par.dist)

    def test_multi_source_distances(self):
        g = grid_2d(6, 6)
        sources = np.asarray([0, 35])
        seq = multi_source_bfs(g, sources)
        par = frontier_bfs(g, sources)
        np.testing.assert_array_equal(seq.dist, par.dist)

    def test_deterministic_smallest_source_claims(self):
        g = path_graph(5)
        res = frontier_bfs(g, np.asarray([0, 4]))
        # middle vertex 2 is tied; source 0's wave wins via smaller parent id
        assert res.source[2] == 0

    def test_frontier_sizes_sum_to_reached(self):
        g = grid_2d(5, 5)
        res = frontier_bfs(g, np.asarray([0]))
        assert sum(res.frontier_sizes) == g.num_vertices
        assert res.num_rounds == len(res.frontier_sizes)

    def test_max_rounds_truncation(self):
        g = path_graph(10)
        res = frontier_bfs(g, np.asarray([0]), max_rounds=3)
        assert res.dist.max() == 3
        assert np.all(res.dist[5:] == -1)

    def test_work_counts_frontier_arcs(self):
        g = grid_2d(5, 5)
        res = frontier_bfs(g, np.asarray([0]))
        assert res.work == g.num_arcs  # every vertex enters one frontier

    def test_parent_consistency(self):
        g = erdos_renyi(70, 0.06, seed=9)
        res = frontier_bfs(g, np.asarray([0]))
        for v in range(70):
            if res.dist[v] > 0:
                assert res.dist[res.parent[v]] == res.dist[v] - 1
                assert g.has_edge(int(res.parent[v]), v)

    def test_bad_sources(self):
        with pytest.raises(ParameterError):
            frontier_bfs(path_graph(3), np.asarray([7]))
