"""Experiment ORACLE — approximate distance oracles (Cohen [13] lineage).

Reported: preprocessing piece counts, query error ratios, and the
query-quality/β trade-off (smaller pieces → tighter estimates → more
preprocessing).  Soundness (never underestimate) is asserted, not just
reported.
"""

from __future__ import annotations

import numpy as np

from repro.oracles import build_oracle
from repro.graphs.generators import erdos_renyi, grid_2d, torus_2d

from common import Table


def test_error_vs_beta_tradeoff():
    graph = grid_2d(30, 30)
    table = Table(
        "ORACLE: estimate quality vs beta (grid 30x30)",
        ["beta", "pieces", "mean_ratio", "max_ratio", "underest"],
    )
    prev_mean = np.inf
    for beta in (0.02, 0.1, 0.3):
        oracle = build_oracle(graph, beta, seed=1)
        rep = oracle.evaluate(num_sources=8, seed=2)
        table.add(
            beta,
            oracle.num_pieces,
            rep.mean_ratio,
            rep.max_ratio,
            rep.underestimate_fraction,
        )
        assert rep.underestimate_fraction == 0.0
    table.show()


def test_oracle_across_families():
    table = Table(
        "ORACLE: quality across graph families (beta=0.2)",
        ["graph", "pieces", "mean_ratio", "max_ratio"],
    )
    for name, graph in [
        ("torus 20x20", torus_2d(20, 20)),
        ("er n=500", erdos_renyi(500, 0.01, seed=3)),
        ("grid 25x25", grid_2d(25, 25)),
    ]:
        oracle = build_oracle(graph, 0.2, seed=4)
        rep = oracle.evaluate(num_sources=6, seed=5)
        table.add(name, oracle.num_pieces, rep.mean_ratio, rep.max_ratio)
        assert rep.underestimate_fraction == 0.0
        assert rep.mean_ratio < 25.0
    table.show()


def test_oracle_query_throughput(benchmark):
    graph = grid_2d(25, 25)
    oracle = build_oracle(graph, 0.2, seed=0)
    rng = np.random.default_rng(1)
    us = rng.integers(0, graph.num_vertices, size=10_000)
    vs = rng.integers(0, graph.num_vertices, size=10_000)
    benchmark(lambda: oracle.estimate(us, vs))


def test_oracle_build_timing(benchmark):
    graph = grid_2d(20, 20)
    benchmark(lambda: build_oracle(graph, 0.2, seed=0))
