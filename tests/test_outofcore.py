"""Tests for the out-of-core graph substrate.

The memmap backing's contract is *transparency*: a graph whose arrays are
views into an ``RGM1`` file must be indistinguishable — same digest, same
decompositions, same quotients, same hierarchies — from the same graph
resident in RAM.  These tests pin that contract for the file format, the
streaming ingest, the backing registry, the pool, and the algorithm layers
that grew streaming paths (quotient, components, AKPW, hierarchies).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import decompose
from repro.errors import GraphError, ParameterError
from repro.graphs import (
    BACKING_KINDS,
    backing_handle,
    backing_kind,
    connected_components,
    load_graph,
    open_mmap_graph,
    quotient_graph,
    save_mmap_graph,
    stream_edge_list_to_mmap,
    stream_graph_to_mmap,
    stream_metis_to_mmap,
)
from repro.graphs.build import from_edges
from repro.graphs.generators import erdos_renyi, path_graph
from repro.graphs.io import write_edge_list, write_metis
from repro.graphs.mmapcsr import MmapCSR, MmapLayout, validate_csr_chunked
from repro.graphs.weighted import weights_by_name
from repro.lowstretch.akpw import akpw_spanning_tree
from repro.embeddings import contracted_hierarchy
from repro.runtime import DecompositionPool, DecompositionRequest
from repro.serve.store import graph_digest


@pytest.fixture
def er_graph():
    return erdos_renyi(90, 0.06, seed=17)


def _mmap_copy(graph, tmp_path, name="g.rgm"):
    return save_mmap_graph(graph, str(tmp_path / name))


# ---------------------------------------------------------------------------
# RGM1 roundtrip + backing registry
# ---------------------------------------------------------------------------
class TestMmapRoundtrip:
    def test_digest_identical_to_ram(self, er_graph, tmp_path):
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            assert graph_digest(wrapper.graph) == graph_digest(er_graph)
            assert wrapper.graph == er_graph
        finally:
            wrapper.close()

    def test_backing_registry(self, er_graph, tmp_path):
        assert backing_kind(er_graph) == "ram"
        assert set(BACKING_KINDS) == {"mmap", "ram", "shm"}
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            assert backing_kind(wrapper.graph) == "mmap"
            assert backing_handle(wrapper.graph) is wrapper
        finally:
            wrapper.close()

    def test_open_mmap_graph_keeps_mapping_alive(self, er_graph, tmp_path):
        path = tmp_path / "g.rgm"
        save_mmap_graph(er_graph, str(path)).close()
        graph = open_mmap_graph(str(path))
        assert graph == er_graph
        assert backing_kind(graph) == "mmap"

    def test_weighted_roundtrip(self, er_graph, tmp_path):
        weighted = weights_by_name(er_graph, "uniform:0.5,2.0", seed=3)
        wrapper = _mmap_copy(weighted, tmp_path)
        try:
            assert graph_digest(wrapper.graph) == graph_digest(weighted)
            assert type(wrapper.graph) is type(weighted)
        finally:
            wrapper.close()

    def test_owns_file_unlinks_on_close(self, er_graph, tmp_path):
        path = tmp_path / "owned.rgm"
        wrapper = MmapCSR.from_graph(er_graph, str(path), owns_file=True)
        assert path.exists()
        wrapper.close()
        assert not path.exists()

    def test_close_is_idempotent_and_views_survive_unlink(
        self, er_graph, tmp_path
    ):
        path = tmp_path / "owned.rgm"
        wrapper = MmapCSR.from_graph(er_graph, str(path), owns_file=True)
        graph = wrapper.graph
        wrapper.close()
        wrapper.close()
        # the mapping pins the inode: the graph stays readable post-unlink
        assert int(graph.indptr[-1]) == er_graph.num_arcs

    def test_validate_csr_chunked_accepts_and_rejects(
        self, er_graph, tmp_path
    ):
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            validate_csr_chunked(wrapper.graph, source="test")
        finally:
            wrapper.close()
        good = from_edges(4, np.asarray([[0, 1], [1, 2]]))
        indices = good.indices.copy()
        indices[0] = 3  # asymmetric: arc 0→3 without 3→0
        from repro.graphs.csr import CSRGraph

        bad = CSRGraph.from_arrays(
            {"indptr": good.indptr.copy(), "indices": indices},
            validate=False,
        )
        with pytest.raises(GraphError):
            validate_csr_chunked(bad, source="test")

    def test_layout_rejects_unknown_graph_class(self, tmp_path):
        with pytest.raises(ParameterError):
            MmapLayout.create(
                str(tmp_path / "x.rgm"),
                dict,
                [("indptr", (1,), np.dtype(np.int64))],
            )


# ---------------------------------------------------------------------------
# streaming ingest
# ---------------------------------------------------------------------------
class TestStreamingIngest:
    def test_edge_list_digest_matches_in_memory(self, er_graph, tmp_path):
        text = tmp_path / "g.edges"
        write_edge_list(er_graph, text)
        wrapper = stream_edge_list_to_mmap(str(text), str(tmp_path / "g.rgm"))
        try:
            assert graph_digest(wrapper.graph) == graph_digest(er_graph)
        finally:
            wrapper.close()

    def test_metis_digest_matches_in_memory(self, er_graph, tmp_path):
        text = tmp_path / "g.metis"
        write_metis(er_graph, text)
        wrapper = stream_metis_to_mmap(str(text), str(tmp_path / "g.rgm"))
        try:
            assert graph_digest(wrapper.graph) == graph_digest(er_graph)
        finally:
            wrapper.close()

    def test_dispatching_stream_matches_load_graph(self, er_graph, tmp_path):
        text = tmp_path / "g.edges"
        write_edge_list(er_graph, text)
        wrapper = stream_graph_to_mmap(str(text), str(tmp_path / "g.rgm"))
        try:
            assert wrapper.graph == load_graph(text)
        finally:
            wrapper.close()

    def test_edgeless_graph(self, tmp_path):
        text = tmp_path / "empty.edges"
        text.write_text("5 0\n")
        wrapper = stream_edge_list_to_mmap(
            str(text), str(tmp_path / "e.rgm")
        )
        try:
            assert wrapper.graph.num_vertices == 5
            assert wrapper.graph.num_edges == 0
        finally:
            wrapper.close()

    def test_empty_file_raises(self, tmp_path):
        text = tmp_path / "void.edges"
        text.write_text("")
        with pytest.raises(GraphError, match="empty"):
            stream_edge_list_to_mmap(str(text), str(tmp_path / "v.rgm"))

    def test_crlf_and_trailing_blank_lines(self, tmp_path):
        text = tmp_path / "crlf.edges"
        text.write_bytes(b"3 2\r\n0 1\r\n\r\n1 2\r\n\r\n\r\n")
        wrapper = stream_edge_list_to_mmap(
            str(text), str(tmp_path / "c.rgm")
        )
        try:
            assert wrapper.graph == path_graph(3)
        finally:
            wrapper.close()

    def test_id_limit_forces_int64_promotion(self, er_graph, tmp_path):
        """``id_limit=1`` makes every id take the int64 scratch path the
        int32 boundary would force at ``n ≥ 2^31`` — same graph out."""
        text = tmp_path / "g.edges"
        write_edge_list(er_graph, text)
        wrapper = stream_edge_list_to_mmap(
            str(text), str(tmp_path / "g.rgm"), id_limit=1
        )
        try:
            assert graph_digest(wrapper.graph) == graph_digest(er_graph)
        finally:
            wrapper.close()

    def test_header_mismatch_raises_and_cleans_up(self, tmp_path):
        text = tmp_path / "bad.edges"
        text.write_text("3 5\n0 1\n1 2\n")
        out = tmp_path / "bad.rgm"
        with pytest.raises(GraphError, match="edge count mismatch"):
            stream_edge_list_to_mmap(str(text), str(out))
        assert not out.exists()

    def test_duplicate_edges_collapse(self, tmp_path):
        text = tmp_path / "dup.edges"
        text.write_text("3 4\n0 1\n1 0\n1 2\n2 1\n")
        wrapper = stream_edge_list_to_mmap(
            str(text), str(tmp_path / "d.rgm")
        )
        try:
            assert wrapper.graph == path_graph(3)
        finally:
            wrapper.close()


# ---------------------------------------------------------------------------
# pool + backing stats
# ---------------------------------------------------------------------------
class TestPoolMmapServing:
    def test_pool_serves_mmap_graph_identically(self, er_graph, tmp_path):
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            with DecompositionPool(
                {"ram": er_graph, "mm": wrapper.graph}, max_workers=1
            ) as pool:
                stats = pool.stats()
                assert stats["backing_mmap"] == 1
                assert stats["backing_shm"] == 1
                assert stats["backing_ram"] == 0
                results = pool.run(
                    [
                        DecompositionRequest(
                            graph_key=key, beta=0.3, seed=5
                        )
                        for key in ("ram", "mm")
                    ]
                )
            a, b = (r.decomposition for r in results)
            np.testing.assert_array_equal(a.center, b.center)
            np.testing.assert_array_equal(a.hops, b.hops)
        finally:
            wrapper.close()

    def test_pool_close_leaves_unowned_file(self, er_graph, tmp_path):
        path = tmp_path / "g.rgm"
        wrapper = save_mmap_graph(er_graph, str(path))
        try:
            with DecompositionPool({"g": wrapper.graph}, max_workers=1):
                pass
            assert path.exists()
        finally:
            wrapper.close()


# ---------------------------------------------------------------------------
# streaming algorithm parity
# ---------------------------------------------------------------------------
class TestStreamingAlgorithmParity:
    def test_quotient_streamed_matches_in_memory(self, er_graph):
        labels = decompose(er_graph, 0.4, seed=2).decomposition.labels
        base = quotient_graph(er_graph, labels)
        for chunk_arcs in (1, 7, 10**6):
            streamed = quotient_graph(
                er_graph, labels, chunk_arcs=chunk_arcs
            )
            assert streamed.graph == base.graph
            np.testing.assert_array_equal(
                streamed.edge_multiplicity, base.edge_multiplicity
            )
            np.testing.assert_array_equal(
                streamed.representative_edge, base.representative_edge
            )

    def test_quotient_auto_streams_on_mmap(self, er_graph, tmp_path):
        labels = decompose(er_graph, 0.4, seed=2).decomposition.labels
        base = quotient_graph(er_graph, labels)
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            streamed = quotient_graph(wrapper.graph, labels)
            assert streamed.graph == base.graph
            np.testing.assert_array_equal(
                streamed.representative_edge, base.representative_edge
            )
        finally:
            wrapper.close()

    def test_connected_components_mmap_parity(self, tmp_path):
        graph = erdos_renyi(120, 0.015, seed=23)  # several components
        base = connected_components(graph)
        wrapper = _mmap_copy(graph, tmp_path)
        try:
            np.testing.assert_array_equal(
                connected_components(wrapper.graph), base
            )
        finally:
            wrapper.close()

    def test_akpw_mmap_parity(self, er_graph, tmp_path):
        ram = akpw_spanning_tree(er_graph, beta=0.4, seed=11)
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            mm = akpw_spanning_tree(wrapper.graph, beta=0.4, seed=11)
        finally:
            wrapper.close()
        np.testing.assert_array_equal(mm.forest.parent, ram.forest.parent)
        assert mm.level_sizes == ram.level_sizes

    def test_contracted_hierarchy_backing_independent(
        self, er_graph, tmp_path
    ):
        ram = contracted_hierarchy(er_graph, seed=9)
        wrapper = _mmap_copy(er_graph, tmp_path)
        try:
            mm = contracted_hierarchy(wrapper.graph, seed=9)
        finally:
            wrapper.close()
        assert ram.num_levels == mm.num_levels
        for a, b in zip(ram.labels, mm.labels):
            np.testing.assert_array_equal(a, b)

    def test_contracted_hierarchy_shape(self, er_graph):
        h = contracted_hierarchy(er_graph, seed=1)
        n = er_graph.num_vertices
        np.testing.assert_array_equal(h.labels[0], np.arange(n))
        # top level = connected components (a Hierarchy validates
        # laminarity in __post_init__, so construction is the laminar test)
        np.testing.assert_array_equal(
            h.labels[-1], connected_components(er_graph)
        )
        pieces = h.pieces_per_level()
        assert all(a >= b for a, b in zip(pieces, pieces[1:]))
