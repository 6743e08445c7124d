"""Tests for the unified decomposition engine and the batch API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    BatchResult,
    PartitionResult,
    decompose,
    decompose_many,
    graph_kind,
)
from repro.core.registry import method_names
from repro.core.weighted import WeightedDecomposition
from repro.errors import ParameterError
from repro.graphs.generators import grid_2d, path_graph
from repro.graphs.weighted import uniform_weights, weights_by_name


class TestDispatch:
    def test_graph_kind(self):
        assert graph_kind(grid_2d(3, 3)) == "unweighted"
        assert graph_kind(uniform_weights(grid_2d(3, 3))) == "weighted"
        with pytest.raises(ParameterError, match="CSRGraph"):
            graph_kind("not a graph")

    def test_auto_resolves_per_graph_kind(self):
        res = decompose(grid_2d(8, 8), 0.3, seed=0)
        assert res.trace.method == "bfs-fractional"
        wres = decompose(uniform_weights(grid_2d(8, 8)), 0.3, seed=0)
        assert wres.trace.method == "weighted-dijkstra"

    def test_weighted_method_on_unweighted_graph_rejected(self):
        with pytest.raises(ParameterError, match="does not support") as exc:
            decompose(grid_2d(8, 8), 0.3, method="dijkstra")
        assert "bfs" in str(exc.value)

    def test_unweighted_method_on_weighted_graph_rejected(self):
        with pytest.raises(ParameterError, match="does not support") as exc:
            decompose(uniform_weights(grid_2d(8, 8)), 0.3, method="bfs")
        assert "dijkstra" in str(exc.value)

    def test_unknown_method_names_choices(self):
        with pytest.raises(ParameterError, match="unknown method") as exc:
            decompose(grid_2d(8, 8), 0.3, method="nope")
        for name in method_names():
            assert name in str(exc.value)

    def test_unknown_option_rejected(self):
        with pytest.raises(ParameterError, match="accepted options"):
            decompose(grid_2d(8, 8), 0.3, method="bfs", bogus=1)


class TestOptionsForwarding:
    def test_tie_break_option(self):
        res = decompose(
            grid_2d(8, 8), 0.3, seed=1, method="bfs", tie_break="permutation"
        )
        assert res.trace.method == "bfs-permutation"

    def test_alias_matches_pinned_option(self):
        g = grid_2d(9, 9)
        via_alias = decompose(g, 0.2, seed=3, method="permutation")
        via_option = decompose(
            g, 0.2, seed=3, method="bfs", tie_break="permutation"
        )
        np.testing.assert_array_equal(
            via_alias.decomposition.center, via_option.decomposition.center
        )

    def test_sequential_deterministic_starts(self):
        res = decompose(
            path_graph(30), 0.3, seed=5, method="sequential",
            randomize_starts=False,
        )
        # Ball 0 grows from vertex 0 when starts are not randomised.
        assert res.decomposition.center[0] == 0


class TestWeightedThroughEngine:
    def test_returns_partition_result_with_report(self):
        graph = weights_by_name(grid_2d(10, 10), "uniform:0.5,2.0", seed=2)
        res = decompose(graph, 0.2, seed=0, validate=True)
        assert isinstance(res, PartitionResult)
        assert isinstance(res.decomposition, WeightedDecomposition)
        assert res.report is not None
        assert res.report.weighted is True
        assert res.report.all_invariants_hold()
        assert res.report.radius_within_certificate is True
        # The report's cut fraction is the weighted measure.
        assert res.report.cut_fraction == pytest.approx(
            res.decomposition.cut_weight_fraction()
        )

    def test_weighted_summary_keys_match_unweighted(self):
        wsum = decompose(
            uniform_weights(grid_2d(8, 8)), 0.3, seed=1
        ).summary()
        usum = decompose(grid_2d(8, 8), 0.3, seed=1).summary()
        assert set(usum) <= set(wsum)

    def test_validate_skips_certificate_without_delta_max(self):
        # 'sequential' records delta_max = NaN; the engine must map that to
        # "no certificate" rather than comparing against NaN.
        res = decompose(
            grid_2d(8, 8), 0.3, seed=2, method="sequential", validate=True
        )
        assert res.report is not None
        assert res.report.delta_max is None
        assert res.report.radius_within_certificate is None


class TestDecomposeMany:
    def test_seed_count_and_order(self):
        batch = decompose_many(
            grid_2d(8, 8), 0.3, seeds=4, max_workers=1
        )
        assert isinstance(batch, BatchResult)
        assert [run.seed for run in batch.runs] == [0, 1, 2, 3]
        assert all(run.graph_index == 0 for run in batch.runs)

    def test_explicit_seeds_and_multiple_graphs(self):
        graphs = [grid_2d(6, 6), path_graph(40)]
        batch = decompose_many(
            graphs, 0.3, seeds=[5, 9], max_workers=1
        )
        assert [(r.graph_index, r.seed) for r in batch.runs] == [
            (0, 5), (0, 9), (1, 5), (1, 9),
        ]

    def test_aggregate_statistics(self):
        batch = decompose_many(
            grid_2d(10, 10), 0.2, seeds=5, max_workers=1
        )
        agg = batch.aggregate()
        assert agg["num_runs"] == 5.0
        cuts = batch.values("cut_fraction")
        assert agg["cut_fraction_mean"] == pytest.approx(cuts.mean())
        assert agg["cut_fraction_std"] == pytest.approx(cuts.std())
        assert agg["wall_time_s_mean"] > 0

    def test_process_pool_matches_serial(self):
        """Seed determinism: pooled per-seed summaries == serial ones."""
        g = grid_2d(12, 12)
        serial = decompose_many(g, 0.15, seeds=8, max_workers=1)
        pooled = decompose_many(g, 0.15, seeds=8, max_workers=2)

        def stable(batch):
            return [
                {k: v for k, v in s.items() if k != "wall_time_s"}
                for s in batch.summaries()
            ]

        assert stable(serial) == stable(pooled)

    def test_mixed_weighted_and_unweighted_batch(self):
        graphs = [grid_2d(6, 6), uniform_weights(grid_2d(6, 6))]
        batch = decompose_many(graphs, 0.3, seeds=2, max_workers=1)
        methods = {run.summary()["method"] for run in batch.runs}
        assert methods == {"bfs-fractional", "weighted-dijkstra"}

    def test_validate_attaches_reports(self):
        batch = decompose_many(
            grid_2d(6, 6), 0.3, seeds=2, validate=True, max_workers=1
        )
        assert all(r.report is not None for r in batch.results)

    def test_bad_configuration_fails_fast(self):
        with pytest.raises(ParameterError, match="accepted options"):
            decompose_many(grid_2d(6, 6), 0.3, seeds=2, bogus=1)
        with pytest.raises(ParameterError, match="at least one seed"):
            decompose_many(grid_2d(6, 6), 0.3, seeds=0)
        with pytest.raises(ParameterError, match="at least one seed"):
            decompose_many(grid_2d(6, 6), 0.3, seeds=[])
        with pytest.raises(ParameterError, match="at least one graph"):
            decompose_many([], 0.3, seeds=2)
        with pytest.raises(ParameterError, match="max_workers must be >= 1"):
            decompose_many(grid_2d(6, 6), 0.3, seeds=2, max_workers=0)

    def test_options_forwarded_to_every_run(self):
        batch = decompose_many(
            grid_2d(6, 6), 0.3, seeds=2, method="bfs",
            tie_break="permutation", max_workers=1,
        )
        assert all(
            run.summary()["method"] == "bfs-permutation"
            for run in batch.runs
        )
