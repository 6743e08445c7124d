"""Tests for the §5 quantile-shift variant (shifts from permutation ranks)."""

from __future__ import annotations

import numpy as np

from repro.core.engine import decompose
from repro.core.shifts import sample_shifts
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.rng.exponential import exponential_cdf


class TestQuantileShifts:
    def test_deltas_are_exponential_quantiles(self):
        n, beta = 64, 0.25
        sh = sample_shifts(n, beta, seed=0, mode="quantile")
        # Sorted deltas must be exactly F^{-1}((r+1/2)/n), r = 0..n-1.
        expected = -np.log1p(-(np.arange(n) + 0.5) / n) / beta
        np.testing.assert_allclose(np.sort(sh.delta), expected)

    def test_distinct_deltas_one_per_rank(self):
        sh = sample_shifts(50, 0.3, seed=1, mode="quantile")
        assert np.unique(sh.delta).size == 50

    def test_randomness_only_in_the_permutation(self):
        a = sample_shifts(40, 0.2, seed=2, mode="quantile")
        b = sample_shifts(40, 0.2, seed=3, mode="quantile")
        # Different assignment, identical multiset of shift values.
        assert not np.array_equal(a.delta, b.delta)
        np.testing.assert_allclose(np.sort(a.delta), np.sort(b.delta))

    def test_mode_label(self):
        sh = sample_shifts(10, 0.5, seed=4, mode="quantile")
        assert sh.mode == "quantile"

    def test_empirical_cdf_close_to_exponential(self):
        # The stratified sample's empirical CDF matches Exp(beta) closely —
        # closer than an i.i.d. sample of the same size would.
        n, beta = 400, 0.1
        sh = sample_shifts(n, beta, seed=5, mode="quantile")
        xs = np.sort(sh.delta)
        empirical = (np.arange(n) + 1) / n
        theoretical = exponential_cdf(xs, beta)
        assert np.max(np.abs(empirical - theoretical)) < 2.0 / n + 1e-9


class TestQuantilePartition:
    def test_valid_partition(self):
        g = grid_2d(15, 15)
        result = decompose(g, 0.2, method="quantile", seed=6, validate=True)
        assert result.report.all_invariants_hold()
        assert result.trace.method == "bfs-quantile"

    def test_radius_certificate_still_holds(self):
        g = erdos_renyi(120, 0.04, seed=7)
        result = decompose(g, 0.3, method="quantile", seed=8)
        assert result.decomposition.max_radius() <= result.trace.delta_max

    def test_statistics_comparable_to_iid_exponential(self):
        # The paper conjectures the variant behaves like the original; at
        # matched (graph, beta) their cut fractions should agree within
        # sampling noise.
        g = grid_2d(30, 30)
        beta = 0.1
        iid = [
            decompose(g, beta, method="bfs", seed=s).decomposition.cut_fraction()
            for s in range(8)
        ]
        qtl = [
            decompose(
                g, beta, method="quantile", seed=s
            ).decomposition.cut_fraction()
            for s in range(8)
        ]
        assert abs(np.mean(iid) - np.mean(qtl)) < 0.03
