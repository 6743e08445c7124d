"""Hypothesis property tests for the substrates (graphs, BFS, trees, scan)."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs.sequential import bfs, multi_source_bfs
from repro.graphs.csr import CSRGraph
from repro.graphs.io import from_json, to_json
from repro.graphs.ops import (
    connected_components,
    count_cut_edges,
    induced_subgraph,
    quotient_graph,
    split_by_labels,
)
from repro.pram.cost_model import WorkDepthCounter
from repro.pram.primitives import par_pack, par_scan
from repro.serve.store import graph_digest
from repro.trees.lca import LCAIndex
from repro.trees.structure import RootedForest

from tests.conftest import connected_graphs, random_graphs

COMMON = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(random_graphs())
def test_csr_json_round_trip(graph):
    assert from_json(to_json(graph)) == graph


@COMMON
@given(random_graphs())
def test_edge_array_degree_consistency(graph):
    edges = graph.edge_array()
    degrees = np.zeros(graph.num_vertices, dtype=np.int64)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    np.testing.assert_array_equal(degrees, graph.degrees())


@COMMON
@given(random_graphs(), st.integers(0, 100))
def test_induced_subgraph_preserves_adjacency(graph, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, graph.num_vertices + 1))
    vertices = rng.choice(graph.num_vertices, size=k, replace=False)
    sub = induced_subgraph(graph, vertices)
    # Every subgraph edge maps to an original edge, and vice versa.
    vset = set(int(v) for v in vertices)
    expected = sum(
        1
        for u, v in graph.iter_edges()
        if u in vset and v in vset
    )
    assert sub.graph.num_edges == expected
    for u, v in sub.graph.edge_array():
        assert graph.has_edge(
            int(sub.original_ids[u]), int(sub.original_ids[v])
        )


@COMMON
@given(random_graphs(min_vertices=1), st.integers(0, 100), st.booleans())
def test_split_by_labels_pieces_are_induced_subgraphs(graph, seed, reverse):
    """Each piece is byte-identical to induced_subgraph of its members —
    whatever the label classes look like (isolated vertices, pieces
    disconnected inside, one class) and whether or not the input's
    neighbour lists are sorted."""
    if reverse:
        rows = [graph.neighbors(v)[::-1] for v in range(graph.num_vertices)]
        graph = CSRGraph(graph.indptr, np.concatenate(rows))
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, graph.num_vertices + 1))
    labels = rng.integers(0, k, size=graph.num_vertices)
    pieces = split_by_labels(graph, labels)
    assert len(pieces) == int(labels.max()) + 1
    for label, (members, piece) in enumerate(pieces):
        np.testing.assert_array_equal(members, np.flatnonzero(labels == label))
        if members.size <= 1:
            assert piece is None
            continue
        ref = induced_subgraph(graph, members).graph
        assert piece.indptr.tobytes() == ref.indptr.tobytes()
        assert piece.indices.tobytes() == ref.indices.tobytes()
        assert graph_digest(piece) == graph_digest(ref)


@COMMON
@given(random_graphs(), st.integers(0, 100))
def test_quotient_conserves_cross_edges(graph, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, graph.num_vertices + 1))
    labels = rng.integers(0, k, size=graph.num_vertices)
    q = quotient_graph(graph, labels)
    assert q.edge_multiplicity.sum() == count_cut_edges(graph, labels)
    assert q.graph.num_edges == q.edge_multiplicity.shape[0]


@COMMON
@given(random_graphs())
def test_components_are_bfs_reachability_classes(graph):
    labels = connected_components(graph)
    for v in range(graph.num_vertices):
        reach = bfs(graph, v).dist >= 0
        np.testing.assert_array_equal(reach, labels == labels[v])


@COMMON
@given(connected_graphs(max_vertices=14), st.integers(0, 100))
def test_lca_distance_is_a_tree_metric(graph, seed):
    res = bfs(graph, 0)
    forest = RootedForest.from_parents(res.parent)
    idx = LCAIndex(forest)
    tree = forest.to_graph()
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    us = rng.integers(0, n, size=12)
    vs = rng.integers(0, n, size=12)
    got = idx.tree_distance(us, vs)
    for u, v, d in zip(us, vs, got):
        expected = multi_source_bfs(tree, np.asarray([int(u)])).dist[int(v)]
        assert d == expected


@COMMON
@given(
    st.lists(st.integers(-50, 50), min_size=0, max_size=200),
)
def test_scan_matches_cumsum_shifted(values):
    arr = np.asarray(values, dtype=np.int64)
    counter = WorkDepthCounter()
    out = par_scan(counter, arr)
    expected = np.concatenate([[0], np.cumsum(arr)[:-1]]) if arr.size else arr
    np.testing.assert_array_equal(out, expected)


@COMMON
@given(
    st.lists(st.integers(0, 100), min_size=0, max_size=100),
    st.integers(0, 2**31 - 1),
)
def test_pack_equals_boolean_indexing(values, seed):
    arr = np.asarray(values, dtype=np.int64)
    rng = np.random.default_rng(seed)
    mask = rng.random(arr.shape[0]) < 0.5
    counter = WorkDepthCounter()
    np.testing.assert_array_equal(par_pack(counter, arr, mask), arr[mask])
