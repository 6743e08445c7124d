"""Tests for cluster spanners."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.core.ldd_bfs import partition_bfs
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi, grid_2d, hypercube
from repro.graphs.ops import num_components
from repro.spanners.cluster_spanner import (
    ldd_spanner,
    spanner_from_decomposition,
)
from repro.spanners.stretch import measure_spanner_stretch


class TestConstruction:
    def test_subgraph_of_original(self, medium_grid):
        res = ldd_spanner(medium_grid, 0.2, seed=0)
        for u, v in res.spanner.edge_array():
            assert medium_grid.has_edge(int(u), int(v))

    def test_preserves_connectivity(self, medium_grid):
        res = ldd_spanner(medium_grid, 0.2, seed=1)
        assert num_components(res.spanner) == num_components(medium_grid)

    def test_edge_counts_accounted(self, medium_grid):
        res = ldd_spanner(medium_grid, 0.15, seed=2)
        assert (
            res.num_edges == res.num_tree_edges + res.num_bridge_edges
        )
        d = res.decomposition
        assert res.num_tree_edges == medium_grid.num_vertices - d.num_pieces

    def test_sparser_than_original_on_dense_graph(self):
        g = hypercube(7)  # m = 448, n = 128
        res = ldd_spanner(g, 0.3, seed=3)
        assert res.num_edges < g.num_edges
        assert res.size_ratio() < 1.0

    def test_from_existing_decomposition(self, small_grid):
        d, _ = partition_bfs(small_grid, 0.3, seed=4)
        res = spanner_from_decomposition(d)
        assert res.stretch_bound == 4 * d.max_radius() + 1

    def test_single_piece_gives_tree(self):
        g = grid_2d(5, 5)
        d, _ = partition_bfs(g, 0.01, seed=5)
        if d.num_pieces == 1:
            res = spanner_from_decomposition(d)
            assert res.num_edges == g.num_vertices - 1
            assert res.num_bridge_edges == 0


class TestStretchGuarantee:
    @pytest.mark.parametrize("seed", range(3))
    def test_measured_stretch_within_bound(self, seed):
        g = grid_2d(12, 12)
        res = ldd_spanner(g, 0.25, seed=seed)
        report = measure_spanner_stretch(g, res.spanner)
        assert report.max <= res.stretch_bound
        assert report.mean >= 1.0

    def test_exact_all_edges_check(self):
        g = erdos_renyi(60, 0.08, seed=6)
        res = ldd_spanner(g, 0.3, seed=6)
        report = measure_spanner_stretch(g, res.spanner)
        assert report.max <= res.stretch_bound
        # Spanner keeps a decent share of edges at stretch 1.
        assert report.kept_fraction > 0.1

    def test_sampled_sources_subset(self):
        g = grid_2d(15, 15)
        res = ldd_spanner(g, 0.2, seed=7)
        full = measure_spanner_stretch(g, res.spanner)
        sampled = measure_spanner_stretch(
            g, res.spanner, max_sources=10, seed=8
        )
        assert sampled.num_edges_checked <= full.num_edges_checked
        assert sampled.max <= full.max

    def test_non_spanner_detected(self):
        # A "spanner" that disconnects an edge's endpoints must raise.
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        broken = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError, match="disconnects"):
            measure_spanner_stretch(g, broken)

    def test_vertex_set_mismatch(self):
        with pytest.raises(GraphError):
            measure_spanner_stretch(grid_2d(3, 3), grid_2d(3, 4))

    def test_edgeless_graph(self):
        g = from_edges(5, [])
        report = measure_spanner_stretch(g, g)
        assert report.num_edges_checked == 0
