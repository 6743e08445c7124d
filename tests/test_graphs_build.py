"""Unit tests for graph builders."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.build import (
    MAX_PACKED_VERTICES,
    empty_graph,
    from_adjacency,
    from_arcs,
    from_edges,
)
from repro.graphs.weighted import weighted_from_edges


class TestFromEdges:
    def test_deduplicates_both_orientations(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_dedup_false_requires_unique(self):
        # Duplicates with dedup=False produce an asymmetric multi-arc CSR
        # that the validator rejects — never silently wrong.
        with pytest.raises(GraphError):
            from_edges(2, [(0, 1), (0, 1)], dedup=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            from_edges(2, [(0, 5)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError):
            from_edges(-1, [])

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError, match="shape"):
            from_edges(3, np.asarray([[0, 1, 2]]))

    def test_empty_edge_list(self):
        g = from_edges(4, [])
        assert g.num_edges == 0
        assert g.num_vertices == 4

    def test_sequence_of_tuples_accepted(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        assert g.num_edges == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: from_edges(n, [[0, 1]]),
            lambda n: weighted_from_edges(n, [[0, 1]], [1.0]),
            lambda n: from_arcs(n, np.asarray([0, 1]), np.asarray([1, 0])),
        ],
        ids=["from_edges", "weighted_from_edges", "from_arcs"],
    )
    def test_packed_key_overflow_raises_before_allocating(self, build):
        # u * n + v wraps int64 above MAX_PACKED_VERTICES; the n-sized
        # offsets array (24 GB here) must never be attempted.
        assert MAX_PACKED_VERTICES == 3_037_000_499
        assert (MAX_PACKED_VERTICES + 1) ** 2 > np.iinfo(np.int64).max
        assert MAX_PACKED_VERTICES**2 <= np.iinfo(np.int64).max
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="overflow"):
                build(MAX_PACKED_VERTICES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFromArcs:
    def test_round_trip_from_existing_graph(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        g2 = from_arcs(4, g.arc_sources(), g.indices)
        assert g == g2

    def test_shape_mismatch(self):
        with pytest.raises(GraphError, match="equal shapes"):
            from_arcs(2, np.asarray([0]), np.asarray([1, 0]))

    def test_asymmetric_arcs_rejected(self):
        with pytest.raises(GraphError):
            from_arcs(3, np.asarray([0, 1]), np.asarray([1, 2]))


class TestFromAdjacency:
    def test_basic(self):
        g = from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_one_sided_listing_symmetrised(self):
        g = from_adjacency([[1], [], []])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_empty_adjacency(self):
        g = from_adjacency([[], [], []])
        assert g.num_vertices == 3 and g.num_edges == 0


class TestEmptyGraph:
    def test_sizes(self):
        g = empty_graph(7)
        assert g.num_vertices == 7 and g.num_edges == 0

    def test_zero_vertices(self):
        assert empty_graph(0).num_vertices == 0

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            empty_graph(-3)


class TestNetworkxInterop:
    def test_round_trip(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs.build import from_networkx, to_networkx

        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        back = from_networkx(to_networkx(g))
        assert back == g

    def test_matches_networkx_degrees(self):
        nx = pytest.importorskip("networkx")
        from repro.graphs.build import from_networkx

        gnx = nx.petersen_graph()
        g = from_networkx(gnx)
        assert g.num_edges == gnx.number_of_edges()
        for v in range(10):
            assert g.degree(v) == gnx.degree[v]
