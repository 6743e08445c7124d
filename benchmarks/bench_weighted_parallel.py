"""Experiment W — the §6 weighted extension: weighted cut fraction tracks
β, radii bounded by δ_max (weighted distance)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weighted import partition_weighted
from repro.graphs.generators import grid_2d
from repro.graphs.weighted import uniform_weights, weighted_from_edges

from common import Table, run_batch


class TestWeightedExtension:
    def test_weighted_cut_tracks_beta(self):
        rng = np.random.default_rng(0)
        g0 = grid_2d(25, 25)
        weights = rng.uniform(0.5, 2.0, size=g0.num_edges)
        graph = weighted_from_edges(g0.num_vertices, g0.edge_array(), weights)
        table = Table(
            "W: weighted cut fraction vs beta (grid 25x25, U[0.5,2] weights)",
            ["beta", "cut_weight_frac", "max_radius", "delta_max"],
        )
        for beta in (0.05, 0.1, 0.2):
            # Through the engine: weighted graphs dispatch to 'dijkstra' and
            # the summary's cut_fraction is the weighted measure.
            batch = run_batch(graph, beta, seeds=5)
            for run in batch.runs:
                assert (
                    run.result.decomposition.max_radius()
                    <= run.result.trace.delta_max + 1e-9
                )
            fracs = batch.values("cut_fraction")
            table.add(
                beta,
                float(fracs.mean()),
                float(batch.values("max_radius").mean()),
                float(np.mean([r.result.trace.delta_max for r in batch.runs])),
            )
            # Lemma 4.4 with c = w, averaged: cut weight ≤ ~β·W.
            assert fracs.mean() <= 2.6 * beta + 0.01
        table.show()

    def test_weighted_agrees_with_unweighted_on_unit_weights(self):
        g0 = grid_2d(15, 15)
        graph = uniform_weights(g0)
        d, _ = partition_weighted(graph, 0.15, seed=3)
        assert d.cut_weight_fraction() == pytest.approx(
            d.num_cut_edges() / g0.num_edges
        )

    def test_weighted_timing(self, benchmark):
        graph = uniform_weights(grid_2d(15, 15))
        benchmark(lambda: partition_weighted(graph, 0.2, seed=0))
