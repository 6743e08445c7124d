"""Tests for the primary (BFS/exact) partition algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.core.ldd_bfs import partition_bfs, partition_bfs_with_shifts
from repro.core.ldd_exact import partition_exact, partition_exact_with_shifts
from repro.core.shifts import sample_shifts
from repro.core.verify import verify_decomposition
from repro.graphs.build import from_edges
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi,
    grid_2d,
    path_graph,
    star_graph,
)

from tests.conftest import assert_valid_partition


class TestPartitionBFS:
    def test_produces_valid_partition(self, medium_grid):
        d, t = partition_bfs(medium_grid, 0.1, seed=0)
        assert_valid_partition(medium_grid, d.center)
        report = verify_decomposition(d)
        assert report.all_invariants_hold()

    def test_reproducible_with_seed(self, small_grid):
        d1, _ = partition_bfs(small_grid, 0.2, seed=42)
        d2, _ = partition_bfs(small_grid, 0.2, seed=42)
        np.testing.assert_array_equal(d1.center, d2.center)

    def test_different_seeds_differ(self, medium_grid):
        d1, _ = partition_bfs(medium_grid, 0.1, seed=1)
        d2, _ = partition_bfs(medium_grid, 0.1, seed=2)
        assert not np.array_equal(d1.center, d2.center)

    def test_radius_bounded_by_delta_max(self, medium_grid):
        d, t = partition_bfs(medium_grid, 0.15, seed=3)
        assert d.max_radius() <= t.delta_max

    def test_trace_records_rounds_and_work(self, small_grid):
        d, t = partition_bfs(small_grid, 0.3, seed=4)
        assert t.rounds >= 1
        assert t.work > 0
        assert t.depth >= t.extra["active_rounds"]
        assert t.method == "bfs-fractional"
        assert sum(t.frontier_sizes) == small_grid.num_vertices

    def test_permutation_tie_break(self, small_grid):
        d, t = partition_bfs(small_grid, 0.2, seed=5, tie_break="permutation")
        assert t.method == "bfs-permutation"
        assert verify_decomposition(d).all_invariants_hold()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            partition_bfs(from_edges(0, []), 0.5)

    def test_mismatched_shifts_rejected(self, small_grid):
        shifts = sample_shifts(5, 0.5, seed=0)
        with pytest.raises(GraphError):
            partition_bfs_with_shifts(small_grid, shifts)

    def test_disconnected_graph_supported(self, two_triangles):
        d, _ = partition_bfs(two_triangles, 0.5, seed=6)
        assert_valid_partition(two_triangles, d.center)
        # No piece can span components.
        labels = d.labels
        assert len(set(labels[:3].tolist()) & set(labels[3:].tolist())) == 0

    def test_single_vertex_graph(self):
        g = from_edges(1, [])
        d, t = partition_bfs(g, 0.5, seed=0)
        assert d.num_pieces == 1
        assert d.max_radius() == 0


class TestBFSExactEquivalence:
    """Theorem-level invariant: both implementations of the assignment rule
    produce identical output on identical shifts."""

    @pytest.mark.parametrize("beta", [0.05, 0.2, 0.5, 0.9])
    def test_equivalence_across_betas(self, beta):
        g = grid_2d(9, 9)
        shifts = sample_shifts(g.num_vertices, beta, seed=int(beta * 100))
        d_bfs, _ = partition_bfs_with_shifts(g, shifts)
        d_exact, _ = partition_exact_with_shifts(g, shifts)
        np.testing.assert_array_equal(d_bfs.center, d_exact.center)
        np.testing.assert_array_equal(d_bfs.hops, d_exact.hops)

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_on_random_graphs(self, seed):
        g = erdos_renyi(45, 0.1, seed=seed)
        shifts = sample_shifts(45, 0.25, seed=seed)
        d_bfs, _ = partition_bfs_with_shifts(g, shifts)
        d_exact, _ = partition_exact_with_shifts(g, shifts)
        np.testing.assert_array_equal(d_bfs.center, d_exact.center)

    def test_equivalence_permutation_mode(self):
        g = grid_2d(7, 7)
        shifts = sample_shifts(49, 0.3, seed=8, mode="permutation")
        d_bfs, _ = partition_bfs_with_shifts(g, shifts)
        d_exact, _ = partition_exact_with_shifts(g, shifts)
        np.testing.assert_array_equal(d_bfs.center, d_exact.center)

    def test_exact_standalone(self, small_grid):
        d, t = partition_exact(small_grid, 0.2, seed=9)
        assert t.method == "exact-fractional"
        assert verify_decomposition(d).all_invariants_hold()


class TestStructuralExtremes:
    def test_complete_graph_few_pieces(self):
        # Diameter 1: the first two wakers partition everything.
        g = complete_graph(30)
        d, _ = partition_bfs(g, 0.2, seed=14)
        assert d.num_pieces <= 4
        assert d.max_radius() <= 1

    def test_star_center_hop_at_most_two(self):
        g = star_graph(40)
        d, _ = partition_bfs(g, 0.3, seed=15)
        assert d.max_radius() <= 2

    def test_path_pieces_are_intervals(self):
        g = path_graph(60)
        d, _ = partition_bfs(g, 0.3, seed=16)
        labels = d.labels
        # Pieces of a path decomposition must be contiguous intervals
        # (connectivity inside the path forces it).
        changes = int((labels[1:] != labels[:-1]).sum())
        assert changes == d.num_pieces - 1
