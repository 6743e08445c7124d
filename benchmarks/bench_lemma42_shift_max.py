"""Experiment L42 — Lemma 4.2: E[δ_max] = H_n/β and the w.h.p. tail.

The lemma has two parts, both regenerated here by simulation:

1. the expected maximum shift equals ``H_n / β`` exactly;
2. ``Pr[any δ_u > (d+1)·ln n / β] ≤ n^{−d}``.
"""

from __future__ import annotations

import numpy as np

from repro.core.shifts import sample_shifts
from repro.core.theory import expected_delta_max, whp_radius_bound

from common import Table, mean_and_sem


def test_expected_maximum_matches_harmonic_formula():
    """Sample mean of δ_max vs H_n/β across n and β."""
    trials = 400
    table = Table(
        "L42: E[delta_max] vs H_n/beta",
        ["n", "beta", "measured", "sem", "H_n/beta", "rel_err"],
    )
    for n, beta in [(50, 0.5), (200, 0.2), (1000, 0.05), (5000, 0.02)]:
        samples = [
            sample_shifts(n, beta, seed=s).delta_max for s in range(trials)
        ]
        mean, sem = mean_and_sem(samples)
        predicted = expected_delta_max(n, beta)
        rel = abs(mean - predicted) / predicted
        table.add(n, beta, mean, sem, predicted, rel)
        # 400 trials put the SEM well under 2% of the mean.
        assert rel < 0.05
    table.show()


def test_tail_bound_holds():
    """Violation frequency of the (d+1)·ln n/β threshold vs n^{−d}."""
    trials = 500
    table = Table(
        "L42-tail: Pr[delta_max > (d+1) ln n / beta] vs n^-d",
        ["n", "beta", "d", "threshold", "violations", "bound*trials"],
    )
    for n, beta, d in [(100, 0.3, 1.0), (500, 0.1, 1.0), (200, 0.2, 0.5)]:
        threshold = whp_radius_bound(n, beta, d)
        violations = sum(
            sample_shifts(n, beta, seed=s).delta_max > threshold
            for s in range(trials)
        )
        expected_max = trials * n ** (-d)
        table.add(n, beta, d, threshold, violations, expected_max)
        # Generous slack: a union-bound prediction, so 4x covers noise.
        assert violations <= 4 * expected_max + 3
    table.show()


def test_spacings_independence_moments():
    """Fact 3.1 sanity at benchmark scale: the k-th spacing's sample mean is
    1/((n−k+1)β)."""
    n, beta, trials = 30, 0.25, 3000
    rng = np.random.default_rng(0)
    draws = np.sort(rng.exponential(1 / beta, size=(trials, n)), axis=1)
    spacings = np.diff(draws, axis=1, prepend=0.0)
    measured = spacings.mean(axis=0)
    predicted = 1.0 / (beta * np.arange(n, 0, -1))
    table = Table(
        "L42-spacings: Fact 3.1 spacing means (n=30, beta=0.25, first 6)",
        ["k", "measured", "predicted"],
    )
    for k in range(6):
        table.add(k + 1, float(measured[k]), float(predicted[k]))
    table.show()
    np.testing.assert_allclose(measured, predicted, rtol=0.15)


def test_delta_max_sampling_throughput(benchmark):
    benchmark(lambda: sample_shifts(100_000, 0.01, seed=1).delta_max)
