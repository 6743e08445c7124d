"""Tests for hierarchical decompositions and HST embeddings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, ParameterError
from repro.embeddings.distortion import measure_distortion
from repro.embeddings.hierarchy import Hierarchy, hierarchical_decomposition
from repro.embeddings.hst import build_hst
from repro.graphs.build import from_edges
from repro.graphs.generators import path_graph


class TestHierarchy:
    def test_structure_valid(self, medium_grid):
        h = hierarchical_decomposition(medium_grid, seed=0)
        assert h.num_vertices == medium_grid.num_vertices
        # Level 0 singletons, top level one piece (connected graph).
        pieces = h.pieces_per_level()
        assert pieces[0] == medium_grid.num_vertices
        assert pieces[-1] == 1
        # Monotone coarsening.
        assert pieces == sorted(pieces, reverse=True)

    def test_laminarity_enforced(self):
        with pytest.raises(GraphError, match="laminar"):
            Hierarchy(
                labels=[
                    np.asarray([0, 1, 2, 3]),
                    np.asarray([0, 0, 1, 1]),
                    np.asarray([0, 1, 0, 1]),  # breaks the level-1 merge
                ],
                scale=[1.0, 2.0, 4.0],
            )

    def test_scales_doubling(self, small_grid):
        h = hierarchical_decomposition(small_grid, seed=1)
        for lo, hi in zip(h.scale[:-1], h.scale[1:]):
            assert hi == pytest.approx(2 * lo)

    def test_disconnected_top_level(self, two_triangles):
        h = hierarchical_decomposition(two_triangles, seed=2)
        assert h.pieces_per_level()[-1] == 2

    def test_separation_level_basics(self, small_grid):
        h = hierarchical_decomposition(small_grid, seed=3)
        # A vertex joins itself at level 0.
        sep = h.separation_level(np.asarray([5]), np.asarray([5]))
        assert sep[0] == 0
        # Distinct vertices separate strictly above level 0.
        sep2 = h.separation_level(np.asarray([0]), np.asarray([99]))
        assert 0 < sep2[0] < h.num_levels

    def test_separation_level_cross_component(self, two_triangles):
        h = hierarchical_decomposition(two_triangles, seed=4)
        sep = h.separation_level(np.asarray([0]), np.asarray([3]))
        assert sep[0] == h.num_levels

    def test_bad_params(self, small_grid):
        with pytest.raises(ParameterError):
            hierarchical_decomposition(small_grid, beta_max=1.0)
        with pytest.raises(ParameterError):
            hierarchical_decomposition(small_grid, radius_constant=0.0)
        with pytest.raises(GraphError):
            hierarchical_decomposition(from_edges(0, []))


class TestHST:
    def test_distance_metric_axioms(self, small_grid):
        h = hierarchical_decomposition(small_grid, seed=5)
        hst = build_hst(h)
        rng = np.random.default_rng(0)
        us = rng.integers(0, 100, size=30)
        vs = rng.integers(0, 100, size=30)
        ws = rng.integers(0, 100, size=30)
        d_uv = hst.distance(us, vs)
        d_vu = hst.distance(vs, us)
        np.testing.assert_allclose(d_uv, d_vu)  # symmetry
        assert np.all(hst.distance(us, us) == 0.0)  # identity
        # Triangle inequality (tree metrics satisfy it exactly).
        d_uw = hst.distance(us, ws)
        d_wv = hst.distance(ws, vs)
        assert np.all(d_uv <= d_uw + d_wv + 1e-9)

    def test_distance_increases_with_separation_level(self, small_grid):
        h = hierarchical_decomposition(small_grid, seed=6)
        hst = build_hst(h)
        # Corner-to-corner separates higher than neighbours, so is farther.
        near = hst.distance(0, 1)[0]
        far = hst.distance(0, 99)[0]
        assert far >= near

    def test_cross_component_infinite(self, two_triangles):
        h = hierarchical_decomposition(two_triangles, seed=7)
        hst = build_hst(h)
        assert np.isinf(hst.distance(0, 3)[0])

    def test_all_pairs_sample(self, small_grid):
        h = hierarchical_decomposition(small_grid, seed=8)
        hst = build_hst(h)
        pairs = np.asarray([[0, 1], [2, 50], [99, 0]])
        d = hst.all_pairs_sample(pairs)
        assert d.shape == (3,)
        np.testing.assert_allclose(
            d, hst.distance(pairs[:, 0], pairs[:, 1])
        )

    def test_shape_mismatch(self, small_grid):
        hst = build_hst(hierarchical_decomposition(small_grid, seed=9))
        with pytest.raises(ParameterError):
            hst.distance(np.asarray([0, 1]), np.asarray([0]))


class TestDistortion:
    def test_dominates_for_most_pairs(self, medium_grid):
        h = hierarchical_decomposition(medium_grid, seed=10)
        hst = build_hst(h)
        rep = measure_distortion(medium_grid, hst, num_sources=5, seed=11)
        assert rep.num_pairs > 0
        assert rep.mean_ratio >= 1.0
        # The hierarchy's probabilistic radius bound keeps contractions rare.
        assert rep.contraction_fraction < 0.2

    def test_path_graph_distortion_finite(self):
        g = path_graph(64)
        h = hierarchical_decomposition(g, seed=12)
        rep = measure_distortion(g, build_hst(h), num_sources=4, seed=13)
        assert np.isfinite(rep.mean_ratio)
        assert rep.max_ratio >= rep.median_ratio

    def test_bad_num_sources(self, small_grid):
        hst = build_hst(hierarchical_decomposition(small_grid, seed=14))
        with pytest.raises(ParameterError):
            measure_distortion(small_grid, hst, num_sources=0)

    def test_single_vertex_graph(self):
        g = from_edges(1, [])
        h = hierarchical_decomposition(g, seed=15)
        rep = measure_distortion(g, build_hst(h), num_sources=1, seed=16)
        assert rep.num_pairs == 0
