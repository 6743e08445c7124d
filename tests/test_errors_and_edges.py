"""Error-hierarchy contracts and cross-module edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    GraphError,
    ParameterError,
    ReproError,
    VerificationError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (GraphError, ParameterError, VerificationError, ConvergenceError):
            assert issubclass(exc, ReproError)

    def test_parameter_error_is_value_error(self):
        # API ergonomics: generic ValueError handlers must catch it too.
        assert issubclass(ParameterError, ValueError)

    def test_single_catch_at_api_boundary(self):
        from repro.core.engine import decompose
        from repro.graphs.generators import grid_2d

        with pytest.raises(ReproError):
            decompose(grid_2d(3, 3), beta=-1.0)
        with pytest.raises(ReproError):
            decompose(grid_2d(3, 3), beta=0.5, method="bogus")


class TestCrossModuleEdgeCases:
    def test_two_vertex_graph_full_pipeline(self):
        """The smallest non-trivial graph must survive the whole stack."""
        from repro.core.engine import decompose
        from repro.graphs.build import from_edges
        from repro.lowstretch.akpw import akpw_spanning_tree
        from repro.solvers.solver import LaplacianSolver
        from repro.solvers.laplacian import random_zero_sum_rhs

        g = from_edges(2, [(0, 1)])
        result = decompose(g, 0.5, seed=0, validate=True)
        assert result.report.all_invariants_hold()
        tree = akpw_spanning_tree(g, seed=1)
        assert tree.forest.num_edges() == 1
        solver = LaplacianSolver(g, preconditioner="tree-akpw", seed=2)
        res = solver.solve(random_zero_sum_rhs(g, seed=3))
        assert res.converged

    def test_star_graph_all_methods(self):
        from repro.core.engine import decompose
        from repro.core.registry import method_names
        from repro.graphs.generators import star_graph

        g = star_graph(25)
        for method in method_names("unweighted"):
            result = decompose(g, 0.4, method=method, seed=4, validate=True)
            assert result.report.all_invariants_hold(), method

    def test_beta_extremes(self):
        from repro.core.ldd_bfs import partition_bfs
        from repro.graphs.generators import grid_2d

        g = grid_2d(8, 8)
        # beta near 1: many tiny pieces, still valid.
        d_hi, _ = partition_bfs(g, 0.999, seed=5)
        assert d_hi.num_pieces >= 4
        # beta tiny: delta_max huge, nearly one piece, still valid.
        d_lo, t_lo = partition_bfs(g, 0.001, seed=5)
        assert d_lo.num_pieces <= 3
        from repro.core.verify import verify_decomposition

        verify_decomposition(d_hi)
        verify_decomposition(d_lo)

    def test_large_sparse_disconnected_pipeline(self):
        from repro.core.engine import decompose
        from repro.graphs.generators import erdos_renyi
        from repro.graphs.ops import num_components

        g = erdos_renyi(400, 0.003, seed=6)  # heavily disconnected
        assert num_components(g) > 1
        result = decompose(g, 0.3, seed=7, validate=True)
        assert result.report.all_invariants_hold()
        # Pieces never span components.
        from repro.graphs.ops import connected_components

        comp = connected_components(g)
        labels = result.decomposition.labels
        for piece in range(result.decomposition.num_pieces):
            members = np.flatnonzero(labels == piece)
            assert np.unique(comp[members]).size == 1

    def test_caterpillar_stress(self):
        """High-leaf-volume topology: radii stay small, leaves attach to
        their spine's piece."""
        from repro.core.ldd_bfs import partition_bfs
        from repro.graphs.generators import caterpillar

        g = caterpillar(40, 5)
        d, t = partition_bfs(g, 0.2, seed=8)
        assert d.max_radius() <= t.delta_max
        # A leaf's center is reachable only through its spine vertex, so
        # hops(leaf) = hops(spine) + 1 unless the leaf is its own center.
        spine = np.arange(40)
        for leaf in range(40, g.num_vertices):
            anchor = (leaf - 40) // 5
            if d.center[leaf] != leaf:
                assert d.center[leaf] == d.center[anchor]
                assert d.hops[leaf] == d.hops[anchor] + 1
