"""Experiment SV — serve-path latency: cold cache vs warm cache vs direct.

The serving claim behind `repro.serve`: once a graph is uploaded and the
result cache is warm, answering a repeat request costs a frame round trip
and a cache lookup — not a decomposition.  This experiment times the same
request set three ways:

- ``direct`` — per-request ``decompose_many()`` in process, the
  cost of not having a server at all;
- ``cold`` — first pass through a freshly started server: frame + pool
  execution per request;
- ``warm`` — the same requests again: every one a memoized hit.

All three paths must produce byte-identical assignment digests (the
derandomization contract that licenses memoization), and in full mode the
warm path must sustain >= 10x the requests/sec of the direct baseline on a
>= 100k-edge graph.

The second phase times the **application serving path** (`spanner` op):
cold spanner requests execute the decomposition on the pool plus the
spanner construction server-side; warm repeats are answered from the same
result cache.  Full mode asserts warm spanner requests sustain >= 5x the
requests/sec of cold ones, and that served edge sets are bit-identical to
the local pipeline.  ``REPRO_BENCH_SMOKE=1`` (or ``--smoke``) shrinks the
workload to a seconds-fast path-exercise and skips the speedup floors.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.core.engine import decompose_many
from repro.graphs.generators import erdos_renyi
from repro.pipeline import EngineProvider
from repro.serve import ServeClient, serve_background
from repro.spanners import ldd_spanner

from common import Table, bench_scale, emit_bench_json

#: (beta, seed) request set; every entry is requested once cold, once warm.
SV_BETAS = (0.25, 0.4)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _workload():
    """(graph, seeds-per-beta) for the current mode/scale."""
    if _smoke():
        return erdos_renyi(200, 0.2, seed=0), 3
    scale = bench_scale()
    # ~128k edges * scale; n grows with scale so density stays serving-shaped.
    n = 800 * scale
    p = 0.4 / scale
    return erdos_renyi(n, p, seed=0), 8


def _percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def test_serve_latency():
    graph, seeds_per_beta = _workload()
    configs = [
        (beta, seed)
        for beta in SV_BETAS
        for seed in range(seeds_per_beta)
    ]

    # Direct baseline: one in-process decompose_many() per request —
    # the per-request cost of calling the engine instead of the server.
    direct_lat: list[float] = []
    direct_arrays: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for beta, seed in configs:
        start = time.perf_counter()
        batch = decompose_many(graph, beta, seeds=[seed], max_workers=1)
        direct_lat.append(time.perf_counter() - start)
        decomposition = batch.results[0].decomposition
        direct_arrays[(beta, seed)] = (
            decomposition.center, decomposition.hops
        )

    with serve_background(graph, max_workers=2) as server:
        with ServeClient(*server.address) as client:
            digest = server.preloaded[0]

            def pass_over(expect_cached: bool) -> list[float]:
                latencies = []
                for beta, seed in configs:
                    start = time.perf_counter()
                    result = client.decompose(digest, beta, seed=seed)
                    latencies.append(time.perf_counter() - start)
                    assert result.cached == expect_cached, (
                        f"expected cached={expect_cached} for "
                        f"beta={beta} seed={seed}"
                    )
                    # Determinism: cold misses and warm hits are both
                    # bit-identical to the direct engine run.
                    center, hops = direct_arrays[(beta, seed)]
                    assert np.array_equal(result.center, center)
                    assert np.array_equal(result.hops, hops)
                return latencies

            cold_lat = pass_over(expect_cached=False)
            warm_lat = pass_over(expect_cached=True)
            cache_stats = client.stats()["cache"]

    assert cache_stats["hits"] >= len(configs)

    table = Table(
        f"SV: serve-path latency, n={graph.num_vertices} "
        f"m={graph.num_edges} requests={len(configs)}/pass",
        ["mode", "p50_ms", "p99_ms", "req_per_s"],
    )
    rates = {}
    report = {}
    for mode, latencies in (
        ("direct", direct_lat),
        ("cold", cold_lat),
        ("warm", warm_lat),
    ):
        p50, p99 = _percentiles_ms(latencies)
        rates[mode] = len(latencies) / sum(latencies)
        table.add(mode, p50, p99, rates[mode])
        report[mode] = {
            "p50_ms": p50, "p99_ms": p99, "req_per_s": rates[mode]
        }
    table.show()
    emit_bench_json(
        "serve",
        {
            "decompose": report,
            "workload": {
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
                "requests_per_pass": len(configs),
                "smoke": _smoke(),
            },
        },
    )

    if not _smoke():
        assert graph.num_edges >= 100_000
        speedup = rates["warm"] / rates["direct"]
        assert speedup >= 10.0, (
            f"warm cache hits only {speedup:.1f}x over direct "
            "decompose_many — the serving layer is not earning its keep"
        )


def test_spanner_serve_latency():
    """Application serving path: cold vs warm `spanner` op round trips."""
    graph, seeds_per_beta = _workload()
    configs = [
        (beta, seed) for beta in SV_BETAS for seed in range(seeds_per_beta)
    ]

    # Local pipeline reference for bit-identity of the served edge sets.
    local_edges = {
        (beta, seed): ldd_spanner(
            graph, beta, seed=seed, provider=EngineProvider()
        ).spanner.edge_array()
        for beta, seed in configs
    }

    with serve_background(graph, max_workers=2) as server:
        with ServeClient(*server.address) as client:
            digest = server.preloaded[0]

            def pass_over(expect_cached: bool) -> list[float]:
                latencies = []
                for beta, seed in configs:
                    start = time.perf_counter()
                    result = client.spanner(digest, beta, seed=seed)
                    latencies.append(time.perf_counter() - start)
                    assert result.cached == expect_cached, (
                        f"expected cached={expect_cached} for "
                        f"beta={beta} seed={seed}"
                    )
                    assert np.array_equal(
                        result.edges, local_edges[(beta, seed)]
                    ), "served spanner drifted from the local pipeline"
                return latencies

            cold_lat = pass_over(expect_cached=False)
            warm_lat = pass_over(expect_cached=True)
            app_stats = client.stats()["server"]

    assert app_stats["app_executions"] == len(configs)
    assert app_stats["app_requests"] == 2 * len(configs)

    table = Table(
        f"SV-APP: spanner op latency, n={graph.num_vertices} "
        f"m={graph.num_edges} requests={len(configs)}/pass",
        ["mode", "p50_ms", "p99_ms", "req_per_s"],
    )
    rates = {}
    report = {}
    for mode, latencies in (("cold", cold_lat), ("warm", warm_lat)):
        p50, p99 = _percentiles_ms(latencies)
        rates[mode] = len(latencies) / sum(latencies)
        table.add(mode, p50, p99, rates[mode])
        report[mode] = {
            "p50_ms": p50, "p99_ms": p99, "req_per_s": rates[mode]
        }
    table.show()
    emit_bench_json("serve", {"spanner": report})

    if not _smoke():
        speedup = rates["warm"] / rates["cold"]
        assert speedup >= 5.0, (
            f"warm spanner requests only {speedup:.1f}x over cold — the "
            "application serving path is not earning its keep"
        )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    test_serve_latency()
    test_spanner_serve_latency()
