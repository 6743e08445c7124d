"""Tests for the baseline and ablation decomposition methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.core.ldd_blelloch import partition_blelloch
from repro.core.ldd_sequential import partition_sequential
from repro.core.ldd_uniform import partition_uniform
from repro.core.verify import verify_decomposition
from repro.graphs.build import from_edges
from repro.graphs.generators import (
    complete_graph,
    grid_2d,
    path_graph,
)

from tests.conftest import assert_valid_partition


class TestSequentialBallGrowing:
    def test_valid_partition(self, medium_grid):
        d, t = partition_sequential(medium_grid, 0.2, seed=0)
        assert_valid_partition(medium_grid, d.center)
        assert verify_decomposition(d).all_invariants_hold()

    def test_cut_bound_holds_in_expectation_style(self, medium_grid):
        # The stop rule is deterministic: per ball, boundary <= beta *
        # (interior + 1), so total cut <= beta * (m + #balls).
        beta = 0.3
        d, t = partition_sequential(medium_grid, beta, seed=1)
        m = medium_grid.num_edges
        assert d.num_cut_edges() <= beta * (m + d.num_pieces) + 1e-9

    def test_path_has_long_sequential_chain(self):
        # The dependency chain on a path is Θ(n) — the paper's motivating
        # bottleneck for parallelisation.
        g = path_graph(300)
        d, t = partition_sequential(g, 0.2, seed=2)
        assert t.sequential_chain >= 150
        assert t.method == "sequential-ball-growing"

    def test_deterministic_start_order(self, small_grid):
        d1, _ = partition_sequential(
            small_grid, 0.3, seed=3, randomize_starts=False
        )
        d2, _ = partition_sequential(
            small_grid, 0.4, seed=99, randomize_starts=False
        )
        # Same deterministic scan order: first ball centered at vertex 0.
        assert d1.center[0] == 0 and d2.center[0] == 0

    def test_complete_graph_one_ball(self):
        g = complete_graph(20)
        d, t = partition_sequential(g, 0.3, seed=4)
        assert d.num_pieces == 1
        assert t.extra["num_balls"] == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            partition_sequential(from_edges(0, []), 0.5)

    def test_work_is_total_arcs(self, small_grid):
        _, t = partition_sequential(small_grid, 0.3, seed=5)
        assert t.work == small_grid.num_arcs


class TestBlellochBaseline:
    def test_valid_partition(self, medium_grid):
        d, t = partition_blelloch(medium_grid, 0.1, seed=0)
        assert_valid_partition(medium_grid, d.center)
        assert verify_decomposition(d).all_invariants_hold()

    def test_iterations_logarithmic(self, medium_grid):
        _, t = partition_blelloch(medium_grid, 0.1, seed=1)
        n = medium_grid.num_vertices
        assert t.extra["iterations"] <= np.ceil(np.log2(n)) + 2

    def test_rounds_exceed_single_bfs(self):
        # The iteration loop pays a repeated-restart round cost; on a path
        # it needs strictly more rounds than a single shifted BFS.
        from repro.core.ldd_bfs import partition_bfs

        g = grid_2d(15, 15)
        _, t_mpx = partition_bfs(g, 0.1, seed=2)
        _, t_bgkmpt = partition_blelloch(g, 0.1, seed=2)
        assert t_bgkmpt.rounds >= t_mpx.rounds * 0.5  # same order at least
        assert t_bgkmpt.extra["iterations"] >= 1

    def test_disconnected(self, two_triangles):
        d, _ = partition_blelloch(two_triangles, 0.5, seed=3)
        assert_valid_partition(two_triangles, d.center)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            partition_blelloch(from_edges(0, []), 0.5)


class TestUniformAblation:
    def test_valid_partition(self, medium_grid):
        d, t = partition_uniform(medium_grid, 0.1, seed=0)
        assert_valid_partition(medium_grid, d.center)
        assert verify_decomposition(d).all_invariants_hold()
        assert t.method == "bfs-uniform-shifts"
        assert "shift_range" in t.extra

    def test_worse_cut_than_exponential_at_scale(self):
        # The ablation's point: uniform shifts cut more edges on average.
        from repro.core.ldd_bfs import partition_bfs

        g = grid_2d(30, 30)
        cuts_exp, cuts_uni = [], []
        for seed in range(5):
            d_e, _ = partition_bfs(g, 0.1, seed=seed)
            d_u, _ = partition_uniform(g, 0.1, seed=seed)
            cuts_exp.append(d_e.cut_fraction())
            cuts_uni.append(d_u.cut_fraction())
        assert np.mean(cuts_uni) > np.mean(cuts_exp)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            partition_uniform(from_edges(0, []), 0.5)
