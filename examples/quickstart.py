#!/usr/bin/env python
"""Quickstart: decompose a graph, inspect the result, verify the guarantees.

``decompose()`` is the unified entry point — it picks the right algorithm
for the graph type, accepts any registered ``method`` plus validated
per-method options, and always returns a ``PartitionResult``.
``decompose_many()`` fans a configuration out over seeds and aggregates.

Run:  python examples/quickstart.py
"""

from repro.core import decompose, decompose_many, verify_decomposition
from repro.core.theory import (
    cut_probability_bound,
    expected_delta_max,
    whp_radius_bound,
)
from repro.graphs import grid_2d, uniform_weights


def main() -> None:
    # A 100x100 grid — the small version of the paper's Figure 1 workload.
    graph = grid_2d(100, 100)
    beta = 0.05
    print(f"graph: n={graph.num_vertices}, m={graph.num_edges}, beta={beta}")

    # One call runs Algorithm 1 (exponentially shifted BFS); method="auto"
    # resolves to "bfs" for unweighted graphs.  Per-method options are
    # validated keywords, e.g. decompose(..., method="bfs",
    # tie_break="permutation") for the Section 5 variant.
    result = decompose(graph, beta, seed=0)
    d = result.decomposition

    print(f"\npieces:        {d.num_pieces}")
    print(f"max radius:    {d.max_radius()}")
    print(f"cut edges:     {d.num_cut_edges()} / {graph.num_edges}")
    print(f"cut fraction:  {d.cut_fraction():.4f}  (target beta = {beta})")

    # The trace carries the Theorem 1.2 quantities.
    t = result.trace
    print(f"\nBFS rounds:    {t.rounds}")
    print(f"work (arcs):   {t.extra['bfs_work']}  (2m = {graph.num_arcs})")
    print(f"delta_max:     {t.delta_max:.2f}"
          f"  (E = H_n/beta = {expected_delta_max(graph.num_vertices, beta):.2f})")

    # Theory vs this run.
    n = graph.num_vertices
    print(f"\nw.h.p. radius bound (d=1):  {whp_radius_bound(n, beta):.1f}")
    print(f"cut probability bound:      {cut_probability_bound(beta):.4f}")

    # Deterministic invariants: partition / connectivity / Lemma 4.1 hops.
    report = verify_decomposition(d, beta=beta, delta_max=t.delta_max)
    print(f"\ninvariants hold:            {report.all_invariants_hold()}")
    print(f"radius within certificate:  {report.radius_within_certificate}")

    # Theorem 1.2 holds with constant probability per run, so real studies
    # repeat over seeds — decompose_many batches that (on the shared-memory
    # worker pool when more than one CPU is available, with results
    # bit-identical to the in-process loop) and aggregates mean/std
    # statistics.
    batch = decompose_many(graph, beta, seeds=8)
    agg = batch.aggregate()
    print(f"\nover {int(agg['num_runs'])} seeds: "
          f"cut fraction {agg['cut_fraction_mean']:.4f}"
          f" +- {agg['cut_fraction_std']:.4f},"
          f" max radius {agg['max_radius_mean']:.1f}"
          f" +- {agg['max_radius_std']:.1f}")

    # Weighted graphs go through the same entry point: a WeightedCSRGraph
    # dispatches to the Section 6 shifted-Dijkstra method automatically.
    wgraph = uniform_weights(grid_2d(40, 40), 2.0)
    wresult = decompose(wgraph, beta, seed=0, validate=True)
    wd = wresult.decomposition
    print(f"\nweighted ({wresult.trace.method}): "
          f"{wd.num_pieces} pieces, "
          f"cut weight fraction {wd.cut_weight_fraction():.4f}, "
          f"invariants {wresult.report.all_invariants_hold()}")


if __name__ == "__main__":
    main()
