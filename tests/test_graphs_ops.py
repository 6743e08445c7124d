"""Unit tests for graph operations (subgraph, components, quotient, cuts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.build import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_2d,
    path_graph,
)
from repro.graphs.ops import (
    connected_components,
    count_cut_edges,
    cut_edge_mask,
    degree_statistics,
    induced_subgraph,
    is_connected,
    num_components,
    quotient_graph,
    split_by_labels,
)
from repro.serve.store import graph_digest


class TestInducedSubgraph:
    def test_grid_block(self):
        g = grid_2d(4, 4)
        # top-left 2x2 block: ids 0, 1, 4, 5
        sub = induced_subgraph(g, np.asarray([0, 1, 4, 5]))
        assert sub.graph.num_vertices == 4
        assert sub.graph.num_edges == 4  # a 2x2 grid square

    def test_mappings_are_inverse(self):
        g = grid_2d(5, 5)
        vertices = np.asarray([3, 7, 11, 20])
        sub = induced_subgraph(g, vertices)
        np.testing.assert_array_equal(sub.original_ids, sorted(vertices))
        for new, orig in enumerate(sub.original_ids):
            assert sub.new_ids[orig] == new

    def test_vertices_deduplicated(self):
        g = path_graph(5)
        sub = induced_subgraph(g, np.asarray([1, 1, 2]))
        assert sub.graph.num_vertices == 2
        assert sub.graph.num_edges == 1

    def test_empty_selection(self):
        g = path_graph(5)
        sub = induced_subgraph(g, np.asarray([], dtype=np.int64))
        assert sub.graph.num_vertices == 0

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(path_graph(3), np.asarray([5]))

    def test_no_edges_between_selected(self):
        g = path_graph(5)
        sub = induced_subgraph(g, np.asarray([0, 2, 4]))
        assert sub.graph.num_edges == 0


def _assert_split_matches_induced(graph, labels):
    """Every piece of split_by_labels is induced_subgraph, byte for byte."""
    labels = np.asarray(labels, dtype=np.int64)
    pieces = split_by_labels(graph, labels)
    assert len(pieces) == int(labels.max()) + 1
    for label, (members, piece) in enumerate(pieces):
        np.testing.assert_array_equal(members, np.flatnonzero(labels == label))
        if members.size <= 1:
            assert piece is None
            continue
        ref = induced_subgraph(graph, members).graph
        assert type(piece) is CSRGraph
        assert piece.indptr.tobytes() == ref.indptr.tobytes()
        assert piece.indices.tobytes() == ref.indices.tobytes()
        assert graph_digest(piece) == graph_digest(ref)
    return pieces


class TestSplitByLabels:
    def test_grid_quadrants(self):
        g = grid_2d(6, 6)
        rows, cols = np.divmod(np.arange(36), 6)
        labels = (rows >= 3) * 2 + (cols >= 3)
        pieces = _assert_split_matches_induced(g, labels)
        assert [p.num_edges for _, p in pieces] == [12] * 4  # 3x3 grids

    def test_unsorted_neighbour_lists(self):
        """Piece rows come out sorted even when the input's are not, as
        induced_subgraph's do."""
        g = grid_2d(6, 7)
        rows = [g.neighbors(v)[::-1] for v in range(g.num_vertices)]
        shuffled = CSRGraph(g.indptr, np.concatenate(rows))
        assert not np.array_equal(shuffled.indices, g.indices)
        labels = np.random.default_rng(3).integers(0, 4, g.num_vertices)
        pieces = _assert_split_matches_induced(shuffled, labels)
        for (_, a), (_, b) in zip(pieces, split_by_labels(g, labels)):
            assert graph_digest(a) == graph_digest(b)

    def test_isolated_vertices(self):
        # 0-1-2 path, isolated 3 and 4, edge 5-6; {3, 4} share a label.
        g = from_edges(7, [(0, 1), (1, 2), (5, 6)])
        labels = np.asarray([0, 0, 0, 1, 1, 2, 3])
        pieces = _assert_split_matches_induced(g, labels)
        members, piece = pieces[1]
        np.testing.assert_array_equal(members, [3, 4])
        assert piece.num_vertices == 2 and piece.num_edges == 0
        assert pieces[3][1] is None  # a single vertex gets no graph

    def test_piece_disconnected_inside(self):
        g = path_graph(6)
        labels = np.asarray([0, 0, 1, 1, 0, 0])  # {0,1,4,5}: two halves
        pieces = _assert_split_matches_induced(g, labels)
        piece = pieces[0][1]
        assert piece.num_vertices == 4 and piece.num_edges == 2
        assert num_components(piece) == 2

    def test_single_label_class(self):
        g = cycle_graph(9)
        ((members, piece),) = _assert_split_matches_induced(
            g, np.zeros(9, dtype=np.int64)
        )
        np.testing.assert_array_equal(members, np.arange(9))
        assert piece == g

    def test_empty_label_class(self):
        g = path_graph(4)
        pieces = split_by_labels(g, np.asarray([0, 0, 2, 2]))
        assert pieces[1][0].size == 0 and pieces[1][1] is None

    def test_label_validation(self):
        with pytest.raises(GraphError, match="length"):
            split_by_labels(path_graph(3), np.zeros(2, dtype=np.int64))
        with pytest.raises(GraphError, match="non-negative"):
            split_by_labels(path_graph(3), np.asarray([0, -1, 0]))

    def test_empty_graph(self):
        assert split_by_labels(from_edges(0, []), np.zeros(0)) == []


class TestConnectedComponents:
    def test_connected_graph_single_label(self):
        labels = connected_components(grid_2d(4, 4))
        assert labels.max() == 0

    def test_two_components(self, two_triangles):
        labels = connected_components(two_triangles)
        assert num_components(two_triangles) == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_labels_dense_and_ordered(self):
        g = from_edges(5, [(3, 4)])  # isolated 0,1,2 then component {3,4}
        labels = connected_components(g)
        np.testing.assert_array_equal(labels, [0, 1, 2, 3, 3])

    def test_empty_and_singleton(self):
        assert connected_components(from_edges(0, [])).shape[0] == 0
        assert num_components(from_edges(1, [])) == 1

    def test_is_connected(self, two_triangles):
        assert is_connected(grid_2d(3, 3))
        assert not is_connected(two_triangles)
        assert is_connected(from_edges(1, []))
        assert is_connected(from_edges(0, []))

    @pytest.mark.parametrize("seed", range(6))
    def test_hooking_matches_scipy_and_the_bfs_sweep(self, seed):
        """The in-memory hooking labels equal scipy's components
        renumbered by smallest vertex, and the streaming BFS sweep's."""
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix

        from repro.graphs.ops import _components_bfs

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # Shuffled paths and random sparse edges: long chains whose ids
        # are not in order, plus isolated vertices.
        perm = rng.permutation(n)
        chain = np.stack([perm[:-1], perm[1:]], axis=1)[: n // 2]
        extra = rng.integers(0, n, size=(n // 4, 2))
        edges = np.concatenate([chain, extra[extra[:, 0] != extra[:, 1]]])
        g = from_edges(n, edges, dedup=True)
        labels = connected_components(g)
        mat = csr_matrix(
            (np.ones(g.num_arcs), g.indices, g.indptr), shape=(n, n)
        )
        _, raw = csgraph.connected_components(mat, directed=False)
        _, first = np.unique(raw, return_index=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        np.testing.assert_array_equal(labels, rank[raw])
        np.testing.assert_array_equal(labels, _components_bfs(g))

    def test_path_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs.build import to_networkx
        from repro.graphs.generators import erdos_renyi

        g = erdos_renyi(80, 0.015, seed=11)
        assert num_components(g) == nx.number_connected_components(
            to_networkx(g)
        )


class TestQuotientGraph:
    def test_contract_path_pairs(self):
        g = path_graph(6)
        labels = np.asarray([0, 0, 1, 1, 2, 2])
        q = quotient_graph(g, labels)
        assert q.graph.num_vertices == 3
        assert q.graph.num_edges == 2  # 0-1 and 1-2 in the quotient

    def test_multiplicity_counted(self):
        g = cycle_graph(4)
        labels = np.asarray([0, 1, 0, 1])
        q = quotient_graph(g, labels)
        assert q.graph.num_edges == 1
        assert q.edge_multiplicity[0] == 4  # all four edges cross

    def test_representative_is_real_edge(self):
        g = grid_2d(4, 4)
        labels = (np.arange(16) % 2).astype(np.int64)
        q = quotient_graph(g, labels)
        for (a, b), (u, v) in zip(
            q.graph.edge_array(), q.representative_edge
        ):
            assert g.has_edge(int(u), int(v))
            assert {labels[u], labels[v]} == {a, b}

    def test_identity_labels_gives_no_edges_lost(self):
        g = grid_2d(3, 3)
        labels = np.arange(9)
        q = quotient_graph(g, labels)
        assert q.graph.num_edges == g.num_edges

    def test_all_same_label(self):
        g = grid_2d(3, 3)
        q = quotient_graph(g, np.zeros(9, dtype=np.int64))
        assert q.graph.num_vertices == 1
        assert q.graph.num_edges == 0

    def test_label_length_checked(self):
        with pytest.raises(GraphError):
            quotient_graph(path_graph(4), np.zeros(3, dtype=np.int64))

    def test_edgeless_graph(self):
        g = from_edges(4, [])
        q = quotient_graph(g, np.asarray([0, 0, 1, 1]))
        assert q.graph.num_vertices == 2
        assert q.graph.num_edges == 0


class TestCuts:
    def test_cut_mask_alignment(self):
        g = path_graph(4)
        labels = np.asarray([0, 0, 1, 1])
        mask = cut_edge_mask(g, labels)
        np.testing.assert_array_equal(mask, [False, True, False])
        assert count_cut_edges(g, labels) == 1

    def test_no_cut_single_label(self):
        g = complete_graph(5)
        assert count_cut_edges(g, np.zeros(5, dtype=np.int64)) == 0

    def test_all_cut_alternating(self):
        g = path_graph(5)
        labels = np.asarray([0, 1, 0, 1, 0])
        assert count_cut_edges(g, labels) == 4

    def test_unsorted_neighbour_lists(self):
        """The arc-scan count must not rely on sorted adjacency rows, which
        CSR validation does not require."""
        g = grid_2d(6, 7)
        rows = [g.neighbors(v)[::-1] for v in range(g.num_vertices)]
        shuffled = CSRGraph(g.indptr, np.concatenate(rows))
        assert not np.array_equal(shuffled.indices, g.indices)
        labels = np.random.default_rng(5).integers(0, 4, g.num_vertices)
        expected = int(cut_edge_mask(shuffled, labels).sum())
        assert expected > 0
        assert count_cut_edges(shuffled, labels) == expected
        assert count_cut_edges(g, labels) == expected

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            cut_edge_mask(path_graph(3), np.zeros(2, dtype=np.int64))
        with pytest.raises(GraphError):
            count_cut_edges(path_graph(3), np.zeros(2, dtype=np.int64))


class TestDegreeStatistics:
    def test_regular_graph(self):
        stats = degree_statistics(cycle_graph(10))
        assert stats == {"min": 2.0, "max": 2.0, "mean": 2.0, "std": 0.0}

    def test_empty(self):
        stats = degree_statistics(from_edges(0, []))
        assert stats["mean"] == 0.0
