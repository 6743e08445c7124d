"""Tests for decomposition verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.core.decomposition import Decomposition
from repro.core.ldd_bfs import partition_bfs
from repro.core.verify import (
    strong_diameters,
    verify_decomposition,
)
from repro.graphs.generators import cycle_graph, grid_2d, path_graph


class TestVerifyValidDecompositions:
    def test_algorithm_output_passes(self, medium_grid):
        d, t = partition_bfs(medium_grid, 0.15, seed=0)
        report = verify_decomposition(
            d, beta=0.15, delta_max=t.delta_max
        )
        assert report.all_invariants_hold()
        assert report.radius_within_certificate is True
        assert report.num_pieces == d.num_pieces
        assert report.cut_fraction == pytest.approx(d.cut_fraction())

    def test_exact_diameters_leq_twice_radius(self, small_grid):
        d, _ = partition_bfs(small_grid, 0.3, seed=1)
        report = verify_decomposition(d, exact_diameters=True)
        assert report.diameters_exact
        assert report.max_strong_diameter <= 2 * report.max_radius
        assert report.max_strong_diameter >= report.max_radius

    def test_strong_diameters_function(self, small_grid):
        d, _ = partition_bfs(small_grid, 0.3, seed=2)
        ecc = strong_diameters(d)
        exact = strong_diameters(d, exact=True)
        assert ecc.shape[0] == d.num_pieces
        assert np.all(exact >= ecc)
        assert np.all(exact <= 2 * ecc + 1)


class TestVerifyCatchesViolations:
    def test_disconnected_piece_detected(self):
        # Path 0-1-2-3-4 with a "piece" {0, 4} that is disconnected inside.
        g = path_graph(5)
        center = np.asarray([0, 1, 1, 1, 0])
        hops = np.asarray([0, 0, 1, 1, 1])
        d = Decomposition(graph=g, center=center, hops=hops)
        with pytest.raises(VerificationError, match="connectivity"):
            verify_decomposition(d)
        report = verify_decomposition(d, raise_on_violation=False)
        assert not report.pieces_connected

    def test_wrong_hops_detected(self):
        # Connected pieces but hops inconsistent with in-piece distances.
        g = path_graph(4)
        center = np.asarray([0, 0, 0, 0])
        bad_hops = np.asarray([0, 1, 1, 2])  # vertex 2 is distance 2, not 1
        d = Decomposition(graph=g, center=center, hops=bad_hops)
        report = verify_decomposition(d, raise_on_violation=False)
        assert not report.hops_consistent
        with pytest.raises(VerificationError, match="hop-consistency"):
            verify_decomposition(d)

    def test_radius_certificate_comparison(self):
        g = cycle_graph(12)
        d, t = partition_bfs(g, 0.4, seed=3)
        report = verify_decomposition(d, delta_max=0.0)
        # Radius can't be within a certificate of 0 unless all singletons.
        expected = d.max_radius() == 0
        assert report.radius_within_certificate is expected

    def test_no_certificate_given(self):
        g = grid_2d(4, 4)
        d, _ = partition_bfs(g, 0.4, seed=4)
        report = verify_decomposition(d)
        assert report.radius_within_certificate is None
        assert report.delta_max is None
