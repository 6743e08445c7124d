"""Tests for Linial–Saks block decompositions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.bfs.sequential import eccentricity
from repro.core.theory import blockdecomp_iteration_bound
from repro.blockdecomp.linial_saks import block_decomposition
from repro.graphs.build import from_edges
from repro.graphs.generators import grid_2d, path_graph
from repro.graphs.ops import connected_components, induced_subgraph


class TestBlockDecomposition:
    def test_every_edge_in_exactly_one_block(self, medium_grid):
        bd = block_decomposition(medium_grid, seed=0)
        assert bd.edge_block.shape[0] == medium_grid.num_edges
        assert np.all(bd.edge_block >= 0)
        assert bd.edge_block.max() == bd.num_blocks - 1
        assert bd.block_edge_counts().sum() == medium_grid.num_edges

    def test_block_count_within_log_bound(self):
        for seed in range(3):
            g = grid_2d(20, 20)
            bd = block_decomposition(g, seed=seed)
            # Expected halving per iteration; allow slack factor 2 on the
            # log₂ m bound since each round halves only in expectation.
            assert bd.num_blocks <= 2 * blockdecomp_iteration_bound(
                g.num_edges
            )

    def test_block_edges_decrease_geometrically_overall(self, medium_grid):
        bd = block_decomposition(medium_grid, seed=1)
        counts = bd.block_edge_counts()
        # First block holds the majority; later blocks shrink overall.
        assert counts[0] > counts[-1]
        assert counts[0] >= 0.3 * medium_grid.num_edges

    def test_block_pieces_have_small_diameter(self):
        g = grid_2d(15, 15)
        bd = block_decomposition(g, seed=2)
        certificate = max(bd.block_radii)
        for b in range(bd.num_blocks):
            sub_edges = bd.block_subgraph(b)
            labels = connected_components(sub_edges)
            for piece in range(int(labels.max()) + 1):
                members = np.flatnonzero(labels == piece)
                if members.size <= 1:
                    continue
                piece_graph = induced_subgraph(sub_edges, members).graph
                ecc = eccentricity(piece_graph, 0)
                assert ecc <= 2 * certificate

    def test_block_subgraph_roundtrip(self, small_grid):
        bd = block_decomposition(small_grid, seed=3)
        total = sum(
            bd.block_subgraph(b).num_edges for b in range(bd.num_blocks)
        )
        assert total == small_grid.num_edges

    def test_path_graph(self):
        g = path_graph(100)
        bd = block_decomposition(g, seed=4)
        assert bd.block_edge_counts().sum() == 99

    def test_edgeless_graph(self):
        bd = block_decomposition(from_edges(5, []), seed=5)
        assert bd.num_blocks == 0
        assert bd.edge_block.shape[0] == 0

    def test_bad_beta(self, small_grid):
        with pytest.raises(ParameterError):
            block_decomposition(small_grid, beta=0.0)

    def test_block_index_out_of_range(self, small_grid):
        bd = block_decomposition(small_grid, seed=6)
        with pytest.raises(ParameterError):
            bd.block_subgraph(bd.num_blocks)

    def test_radii_recorded_per_block(self, small_grid):
        bd = block_decomposition(small_grid, seed=7)
        assert len(bd.block_radii) == bd.num_blocks
        assert all(r >= 0 for r in bd.block_radii)
