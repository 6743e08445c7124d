"""Tests for the Laplacian solver stack (PCG, preconditioners, facade)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConvergenceError, GraphError, ParameterError
from repro.graphs.generators import cycle_graph, erdos_renyi, grid_2d, path_graph
from repro.graphs.weighted import weighted_from_edges
from repro.lowstretch.akpw import akpw_spanning_tree, bfs_spanning_tree
from repro.solvers.laplacian import (
    component_projector,
    graph_laplacian,
    random_zero_sum_rhs,
    residual_norm,
)
from repro.solvers.pcg import pcg
from repro.solvers.solver import PRECONDITIONERS, LaplacianSolver
from repro.solvers.tree_precond import TreePreconditioner
from repro.solvers.ultrasparse import UltrasparsifierPreconditioner
from repro.trees.structure import RootedForest


class TestLaplacian:
    def test_structure(self):
        g = path_graph(4)
        lap = graph_laplacian(g).toarray()
        expected = np.asarray(
            [
                [1, -1, 0, 0],
                [-1, 2, -1, 0],
                [0, -1, 2, -1],
                [0, 0, -1, 1],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(lap, expected)

    def test_weighted_structure(self):
        g = weighted_from_edges(
            2, np.asarray([[0, 1]]), np.asarray([3.0])
        )
        lap = graph_laplacian(g).toarray()
        np.testing.assert_allclose(lap, [[3.0, -3.0], [-3.0, 3.0]])

    def test_rows_sum_to_zero(self):
        g = erdos_renyi(40, 0.1, seed=0)
        lap = graph_laplacian(g)
        np.testing.assert_allclose(
            np.asarray(lap.sum(axis=1)).ravel(), 0.0, atol=1e-12
        )

    def test_psd(self):
        g = grid_2d(5, 5)
        lap = graph_laplacian(g).toarray()
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-9

    def test_projector_zeroes_component_means(self, two_triangles):
        project = component_projector(two_triangles)
        x = np.asarray([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        px = project(x)
        assert px[:3].sum() == pytest.approx(0.0)
        assert px[3:].sum() == pytest.approx(0.0)

    def test_random_rhs_in_range(self, two_triangles):
        b = random_zero_sum_rhs(two_triangles, seed=1)
        assert b[:3].sum() == pytest.approx(0.0, abs=1e-12)
        assert b[3:].sum() == pytest.approx(0.0, abs=1e-12)

    def test_residual_norm(self):
        g = path_graph(3)
        lap = graph_laplacian(g)
        b = np.asarray([1.0, 0.0, -1.0])
        assert residual_norm(lap, np.zeros(3), b) == pytest.approx(1.0)
        with pytest.raises(ParameterError):
            residual_norm(lap, np.zeros(2), b)


class TestPCG:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 20))
        spd = a @ a.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        res = pcg(lambda x: spd @ x, b, rtol=1e-10, max_iterations=200)
        assert res.converged
        np.testing.assert_allclose(spd @ res.x, b, atol=1e-6)

    def test_zero_rhs(self):
        res = pcg(lambda x: x, np.zeros(5))
        assert res.converged and res.num_iterations == 0

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 30))
        spd = a @ a.T + 0.01 * np.eye(30)  # ill-conditioned
        b = rng.standard_normal(30)
        res = pcg(lambda x: spd @ x, b, rtol=1e-14, max_iterations=3)
        assert not res.converged
        assert res.num_iterations == 3

    def test_raise_on_failure(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 30))
        spd = a @ a.T + 0.01 * np.eye(30)
        b = rng.standard_normal(30)
        with pytest.raises(ConvergenceError):
            pcg(
                lambda x: spd @ x,
                b,
                rtol=1e-14,
                max_iterations=2,
                raise_on_failure=True,
            )

    def test_singular_laplacian_with_projector(self):
        g = cycle_graph(12)
        lap = graph_laplacian(g)
        b = random_zero_sum_rhs(g, seed=5)
        res = pcg(
            lambda x: lap @ x,
            b,
            project=component_projector(g),
            rtol=1e-10,
            max_iterations=200,
        )
        assert res.converged
        assert residual_norm(lap, res.x, b) < 1e-9
        assert res.x.sum() == pytest.approx(0.0, abs=1e-8)

    def test_preconditioner_reduces_iterations(self):
        # Diagonally dominant system with wildly varying diagonal: Jacobi
        # must help.
        n = 60
        diag = np.logspace(0, 4, n)
        mat = np.diag(diag) + 0.1 * np.ones((n, n))
        b = np.random.default_rng(6).standard_normal(n)
        plain = pcg(lambda x: mat @ x, b, rtol=1e-10, max_iterations=500)
        jac = pcg(
            lambda x: mat @ x,
            b,
            preconditioner=lambda r: r / diag,
            rtol=1e-10,
            max_iterations=500,
        )
        assert jac.num_iterations < plain.num_iterations

    def test_residual_history_monotone_tail(self):
        g = grid_2d(6, 6)
        lap = graph_laplacian(g)
        b = random_zero_sum_rhs(g, seed=7)
        res = pcg(
            lambda x: lap @ x,
            b,
            project=component_projector(g),
            rtol=1e-8,
        )
        assert res.residual_history[0] == pytest.approx(1.0)
        assert res.residual_history[-1] <= 1e-8

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            pcg(lambda x: x, np.ones(3), rtol=0.0)
        with pytest.raises(ParameterError):
            pcg(lambda x: x, np.ones(3), max_iterations=0)


class TestTreePreconditioner:
    def test_exact_tree_solve(self):
        # On a tree the preconditioner IS the (pseudo)inverse: PCG converges
        # in O(1) iterations.
        g = path_graph(30)
        forest = bfs_spanning_tree(g, root=0)
        tp = TreePreconditioner(forest)
        lap = graph_laplacian(g)
        b = random_zero_sum_rhs(g, seed=8)
        y = tp.apply(b)
        np.testing.assert_allclose(lap @ y, b, atol=1e-9)

    def test_apply_matches_dense_pinv(self):
        g = path_graph(10)
        forest = bfs_spanning_tree(g, root=3)
        tp = TreePreconditioner(forest)
        lap = graph_laplacian(g).toarray()
        b = random_zero_sum_rhs(g, seed=9)
        np.testing.assert_allclose(
            tp.apply(b), np.linalg.pinv(lap) @ b, atol=1e-8
        )

    def test_weighted_tree(self):
        parent = np.asarray([-1, 0, 1])
        weight = np.asarray([0.0, 2.0, 5.0])
        forest = RootedForest(parent=parent, edge_weight=weight)
        tp = TreePreconditioner(forest)
        # Dense weighted Laplacian of the 3-path with weights 2, 5.
        lap = np.asarray(
            [[2.0, -2.0, 0.0], [-2.0, 7.0, -5.0], [0.0, -5.0, 5.0]]
        )
        b = np.asarray([1.0, 0.5, -1.5])
        np.testing.assert_allclose(
            tp.apply(b), np.linalg.pinv(lap) @ b, atol=1e-9
        )

    def test_forest_with_components(self, two_triangles):
        forest = bfs_spanning_tree(two_triangles, seed=10)
        tp = TreePreconditioner(forest)
        b = random_zero_sum_rhs(two_triangles, seed=11)
        y = tp.apply(b)
        assert y[:3].sum() == pytest.approx(0.0, abs=1e-9)
        assert y[3:].sum() == pytest.approx(0.0, abs=1e-9)

    def test_rhs_length_checked(self):
        tp = TreePreconditioner(bfs_spanning_tree(path_graph(4), root=0))
        with pytest.raises(GraphError):
            tp.apply(np.zeros(3))


class TestUltrasparsifier:
    def test_apply_is_linear_operator(self):
        g = grid_2d(7, 7)
        forest = akpw_spanning_tree(g, seed=12).forest
        pc = UltrasparsifierPreconditioner(g, forest, seed=13)
        r1, r2 = np.random.default_rng(14).standard_normal((2, 49))
        np.testing.assert_allclose(
            pc.apply(r1 + r2), pc.apply(r1) + pc.apply(r2), atol=1e-8
        )

    def test_includes_tree_at_minimum(self):
        g = grid_2d(6, 6)
        forest = akpw_spanning_tree(g, seed=15).forest
        pc = UltrasparsifierPreconditioner(
            g, forest, offtree_fraction=0.0, seed=16
        )
        assert pc.num_edges == g.num_vertices - 1

    def test_fraction_validated(self):
        g = grid_2d(4, 4)
        forest = akpw_spanning_tree(g, seed=17).forest
        with pytest.raises(ParameterError):
            UltrasparsifierPreconditioner(g, forest, offtree_fraction=1.5)


class TestLaplacianSolverFacade:
    @pytest.mark.parametrize("pc", PRECONDITIONERS)
    def test_all_preconditioners_converge(self, pc):
        g = grid_2d(10, 10)
        solver = LaplacianSolver(g, preconditioner=pc, seed=18)
        b = random_zero_sum_rhs(g, seed=19)
        res = solver.solve(b, rtol=1e-8)
        assert res.converged, pc
        assert residual_norm(solver.laplacian, res.x, b) < 1e-7

    def test_ultrasparse_beats_unpreconditioned(self):
        g = grid_2d(20, 20)
        b = random_zero_sum_rhs(g, seed=20)
        fast = LaplacianSolver(g, preconditioner="ultrasparse", seed=21)
        slow = LaplacianSolver(g, preconditioner="none", seed=21)
        it_fast = fast.solve(b).num_iterations
        it_slow = slow.solve(b).num_iterations
        assert it_fast < it_slow

    def test_tree_stats_recorded(self):
        g = grid_2d(8, 8)
        solver = LaplacianSolver(g, preconditioner="tree-akpw", seed=22)
        assert np.isfinite(solver.stats.tree_total_stretch)
        assert solver.stats.preconditioner == "tree-akpw"
        none_solver = LaplacianSolver(g, preconditioner="none")
        assert np.isnan(none_solver.stats.tree_total_stretch)

    def test_unknown_preconditioner(self):
        with pytest.raises(ParameterError):
            LaplacianSolver(grid_2d(3, 3), preconditioner="magic")

    def test_disconnected_graph(self, two_triangles):
        solver = LaplacianSolver(
            two_triangles, preconditioner="tree-bfs", seed=23
        )
        b = random_zero_sum_rhs(two_triangles, seed=24)
        res = solver.solve(b)
        assert res.converged
