"""Integration tests: full pipelines composed through the public API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockdecomp import block_decomposition
from repro.core import (
    decompose,
    sample_shifts,
    partition_bfs_with_shifts,
    verify_decomposition,
)
from repro.embeddings import build_hst, hierarchical_decomposition, measure_distortion
from repro.graphs import (
    barabasi_albert,
    erdos_renyi,
    grid_2d,
    random_regular,
    torus_2d,
)
from repro.lowstretch import akpw_spanning_tree, stretch_report
from repro.oracles import build_oracle
from repro.solvers import LaplacianSolver, random_zero_sum_rhs, residual_norm
from repro.spanners import measure_spanner_stretch
from repro.trees import LCAIndex, bfs_forest_from_decomposition


class TestDecomposeThenConsume:
    """One decomposition feeding every downstream application."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = grid_2d(18, 18)
        result = decompose(graph, 0.2, seed=7, validate=True)
        return graph, result

    def test_decomposition_valid(self, workload):
        _, result = workload
        assert result.report.all_invariants_hold()

    def test_forest_and_lca(self, workload):
        graph, result = workload
        forest = bfs_forest_from_decomposition(result.decomposition)
        idx = LCAIndex(forest)
        d = idx.tree_distance(0, graph.num_vertices - 1)
        # Opposite grid corners always end up in a finite tree iff same piece.
        labels = result.decomposition.labels
        if labels[0] == labels[-1]:
            assert np.isfinite(d[0])
        else:
            assert np.isinf(d[0])

    def test_spanner_from_same_decomposition(self, workload):
        graph, result = workload
        from repro.spanners import spanner_from_decomposition

        sp = spanner_from_decomposition(result.decomposition)
        report = measure_spanner_stretch(
            graph, sp.spanner, max_sources=30, seed=1
        )
        assert report.max <= sp.stretch_bound

    def test_oracle_from_same_decomposition(self, workload):
        graph, result = workload
        from repro.oracles import ClusterDistanceOracle

        oracle = ClusterDistanceOracle(result.decomposition)
        rep = oracle.evaluate(num_sources=5, seed=2)
        assert rep.underestimate_fraction == 0.0


class TestCrossFamilyPipelines:
    @pytest.mark.parametrize(
        "graph_fn",
        [
            lambda: torus_2d(10, 10),
            lambda: random_regular(60, 4, seed=1),
            lambda: barabasi_albert(80, 2, seed=2),
            lambda: erdos_renyi(90, 0.05, seed=3),
        ],
        ids=["torus", "regular", "ba", "er"],
    )
    def test_full_stack_on_family(self, graph_fn):
        graph = graph_fn()
        # 1. decompose + verify
        result = decompose(graph, 0.25, seed=5, validate=True)
        assert result.report.all_invariants_hold()
        # 2. low-stretch tree + stretch
        tree = akpw_spanning_tree(graph, beta=0.4, seed=6)
        rep = stretch_report(graph, tree.forest)
        assert rep.mean >= 1.0
        # 3. solve a Laplacian system with the tree-derived preconditioner
        solver = LaplacianSolver(graph, preconditioner="ultrasparse", seed=7)
        b = random_zero_sum_rhs(graph, seed=8)
        res = solver.solve(b, rtol=1e-7)
        assert res.converged
        assert residual_norm(solver.laplacian, res.x, b) < 1e-6

    def test_block_decomposition_then_per_block_partition(self):
        graph = grid_2d(14, 14)
        bd = block_decomposition(graph, seed=9)
        # Blocks re-assemble the edge set exactly.
        assert bd.block_edge_counts().sum() == graph.num_edges
        # The first (largest) block is itself decomposable.
        sub = bd.block_subgraph(0)
        result = decompose(sub, 0.3, seed=10, validate=True)
        assert result.report.all_invariants_hold()

    def test_hierarchy_embedding_pipeline(self):
        graph = grid_2d(12, 12)
        h = hierarchical_decomposition(graph, seed=11)
        hst = build_hst(h)
        rep = measure_distortion(graph, hst, num_sources=4, seed=12)
        assert rep.mean_ratio >= 1.0
        assert rep.contraction_fraction < 0.25


class TestSharedShiftsAcrossMethods:
    def test_one_shift_sample_two_engines_one_downstream(self):
        graph = grid_2d(10, 10)
        shifts = sample_shifts(graph.num_vertices, 0.3, seed=13)
        d1, _ = partition_bfs_with_shifts(graph, shifts)
        report = verify_decomposition(
            d1, beta=0.3, delta_max=shifts.delta_max
        )
        assert report.radius_within_certificate
        oracle_rep = build_oracle(graph, 0.3, seed=13).evaluate(
            num_sources=4, seed=14
        )
        assert oracle_rep.underestimate_fraction == 0.0


class TestSeededDeterminismEndToEnd:
    def test_full_pipeline_reproducible(self):
        graph = erdos_renyi(70, 0.07, seed=20)

        def run():
            result = decompose(graph, 0.2, seed=21)
            tree = akpw_spanning_tree(graph, beta=0.5, seed=22)
            return (
                result.decomposition.center.tolist(),
                tree.forest.parent.tolist(),
            )

        assert run() == run()
