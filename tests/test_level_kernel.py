"""The level kernel against the per-piece oracle.

:func:`repro.pipeline.levels.decompose_level` decomposes every piece of a
hierarchy or AKPW level in one shifted BFS over the parent graph.  The
per-piece builders it replaced live on in ``tests/level_oracle.py``; the
properties here build each hierarchy and AKPW tree twice — once as the
library does, once with the oracle patched in — and require identical
label stacks and parent arrays, for every shift method and tie-break, on
the numpy kernel and (when built) the native one.  The batched shift
draw is checked against per-piece ``sample_shifts``, the one-pass piece
digests against ``graph_digest`` of each induced subgraph, and the
one-draw-per-digest dedup on levels of identical pieces.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfs.kernels import native_available
from repro.core.ldd_bfs import partition_bfs
from repro.core.registry import get_method, method_names
from repro.core.shifts import sample_shifts, sample_shifts_batch
from repro.embeddings import hierarchy as hierarchy_module
from repro.embeddings.hierarchy import Hierarchy, hierarchical_decomposition
from repro.errors import GraphError, ParameterError
from repro.graphs.build import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import grid_2d
from repro.graphs.ops import (
    connected_components,
    induced_subgraph,
    piece_layout,
)
from repro.graphs.weighted import uniform_weights
from repro.lowstretch import akpw as akpw_module
from repro.lowstretch.akpw import akpw_spanning_tree
from repro.pipeline import EngineProvider
from repro.pipeline.levels import decompose_level
from repro.serve.store import csr_digest, graph_digest, piece_digests

from tests.conftest import mixed_graphs
from tests.level_oracle import decompose_level_oracle, refine_oracle

KERNELS = ["python"] + (["native"] if native_available() else [])

#: Every (method, options) pair the level kernel serves.
SHIFT_CASES = [
    ("bfs", {"tie_break": "fractional"}),
    ("bfs", {"tie_break": "permutation"}),
    ("bfs", {"tie_break": "quantile"}),
    ("permutation", {}),
    ("quantile", {}),
]


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(
    graph=mixed_graphs(),
    seed=st.integers(0, 2**32),
    case=st.sampled_from(SHIFT_CASES),
    kernel=st.sampled_from(KERNELS),
)
def test_hierarchy_labels_match_the_per_piece_oracle(
    graph, seed, case, kernel
):
    method, options = case
    got = hierarchical_decomposition(
        graph, seed=seed, method=method, kernel=kernel, **options
    )
    with mock.patch.object(hierarchy_module, "_refine", refine_oracle):
        want = hierarchical_decomposition(
            graph, seed=seed, method=method, kernel=kernel,
            provider=EngineProvider(memo_bytes=0), **options,
        )
    assert got.num_levels == want.num_levels
    for mine, theirs in zip(got.labels, want.labels):
        np.testing.assert_array_equal(mine, theirs)


@_SETTINGS
@given(
    graph=mixed_graphs(),
    seed=st.integers(0, 2**32),
    beta=st.floats(0.2, 0.9),
    case=st.sampled_from(SHIFT_CASES),
    kernel=st.sampled_from(KERNELS),
)
def test_akpw_parents_match_the_per_piece_oracle(
    graph, seed, beta, case, kernel
):
    method, options = case
    got = akpw_spanning_tree(
        graph, beta=beta, seed=seed, method=method, kernel=kernel, **options
    )
    with mock.patch.object(
        akpw_module, "_decompose_level", decompose_level_oracle
    ):
        want = akpw_spanning_tree(
            graph, beta=beta, seed=seed, method=method, kernel=kernel,
            provider=EngineProvider(memo_bytes=0), **options,
        )
    np.testing.assert_array_equal(got.forest.parent, want.forest.parent)
    assert got.level_sizes == want.level_sizes
    assert got.level_betas == want.level_betas


@pytest.mark.parametrize("method", ["blelloch", "exact", "sequential",
                                    "uniform"])
def test_per_piece_methods_match_the_oracle(method):
    """The methods left on the per-piece path build what they built."""
    graph = from_edges(
        12, np.asarray([[0, 1], [1, 2], [2, 3], [3, 0], [5, 6], [6, 7]])
    )
    for g in (graph, grid_2d(6, 5)):
        got = hierarchical_decomposition(g, seed=3, method=method)
        with mock.patch.object(hierarchy_module, "_refine", refine_oracle):
            want = hierarchical_decomposition(g, seed=3, method=method)
        for mine, theirs in zip(got.labels, want.labels):
            np.testing.assert_array_equal(mine, theirs)


def test_kernel_methods_are_the_partition_bfs_registrations():
    """The level kernel serves exactly the methods registered on
    ``partition_bfs``; adding one there moves it onto the kernel."""
    on_kernel = {
        name for name in method_names("unweighted")
        if get_method(name).func is partition_bfs
    }
    assert on_kernel == {"bfs", "permutation", "quantile"}


def test_level_result_refines_the_labels_with_parent_ids():
    graph = grid_2d(8, 8)
    labels = (np.arange(64) % 8 >= 4).astype(np.int64)  # two halves
    dec = decompose_level(
        graph, labels, 0.5, root_seed=11, tag="hierarchy"
    )
    assert dec.graph is graph
    np.testing.assert_array_equal(labels[dec.center], labels)


@given(graph=mixed_graphs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_layout_pieces_hash_like_their_induced_subgraphs(graph, data):
    n = graph.num_vertices
    labels = np.asarray(
        data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    layout = piece_layout(graph, labels)
    for label in range(layout.num_pieces):
        members = np.flatnonzero(labels == label)
        np.testing.assert_array_equal(
            layout.order[layout.bounds[label]:layout.bounds[label + 1]],
            members,
        )
        indptr, indices = layout.piece_arrays(label)
        sub = induced_subgraph(graph, members).graph
        np.testing.assert_array_equal(indptr, sub.indptr)
        np.testing.assert_array_equal(indices, sub.indices)
        assert csr_digest(
            CSRGraph.__name__, {"indptr": indptr, "indices": indices}
        ) == graph_digest(sub)
    # All pieces hashed in one pass, in any order and any subset.
    every = np.arange(layout.num_pieces)
    pieces = data.draw(st.sampled_from([every, every[::-1], every[1::2]]))
    assert piece_digests(layout, pieces) == [
        graph_digest(
            induced_subgraph(graph, np.flatnonzero(labels == label)).graph
        )
        for label in pieces.tolist()
    ]


# ---------------------------------------------------------------------------
# the batched shift draw and its one-draw-per-digest dedup
# ---------------------------------------------------------------------------
TIE_MODES = ["fractional", "permutation", "quantile"]


@pytest.mark.parametrize("mode", TIE_MODES)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
    seeds=st.data(),
    beta=st.floats(0.01, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_batched_draw_matches_per_piece_sample_shifts(
    mode, sizes, seeds, beta
):
    seeds = [seeds.draw(st.integers(0, 2**63 - 1)) for _ in sizes]
    start_time, tie_key = sample_shifts_batch(sizes, seeds, beta, mode=mode)
    at = 0
    for size, seed in zip(sizes, seeds):
        one = sample_shifts(size, beta, seed=seed, mode=mode)
        np.testing.assert_array_equal(start_time[at:at + size], one.start_time)
        np.testing.assert_array_equal(tie_key[at:at + size], one.tie_key)
        at += size
    assert at == start_time.shape[0] == tie_key.shape[0]


@pytest.mark.parametrize("mode", TIE_MODES)
def test_batched_draw_on_pieces_of_two_and_no_pieces(mode):
    sizes, seeds = [2] * 7, list(range(7))
    start_time, tie_key = sample_shifts_batch(sizes, seeds, 0.4, mode=mode)
    for i, seed in enumerate(seeds):
        one = sample_shifts(2, 0.4, seed=seed, mode=mode)
        np.testing.assert_array_equal(start_time[2 * i:2 * i + 2],
                                      one.start_time)
        np.testing.assert_array_equal(tie_key[2 * i:2 * i + 2], one.tie_key)
    empty = sample_shifts_batch([], [], 0.4, mode=mode)
    assert [arr.shape for arr in empty] == [(0,), (0,)]
    with pytest.raises(ParameterError):
        sample_shifts_batch([3], [1], 0.4, mode="bogus")


def _copies(piece: CSRGraph, k: int, *, extra_isolated: int = 0) -> CSRGraph:
    """``k`` disjoint copies of ``piece`` plus some isolated vertices."""
    size = piece.num_vertices
    edges = piece.edge_array()
    blocks = [edges + i * size for i in range(k)]
    return from_edges(
        k * size + extra_isolated, np.concatenate(blocks, axis=0)
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", SHIFT_CASES)
@pytest.mark.parametrize("piece", [grid_2d(1, 2), grid_2d(3, 3),
                                   grid_2d(2, 5)])
def test_identical_pieces_match_the_oracle(piece, case, kernel):
    """Every piece of every level shares a digest with its copies, so
    each distinct draw is copied many times; the labels and trees must
    still be the per-piece oracle's."""
    method, options = case
    graph = _copies(piece, 9, extra_isolated=2)
    got = hierarchical_decomposition(
        graph, seed=5, method=method, kernel=kernel, **options
    )
    with mock.patch.object(hierarchy_module, "_refine", refine_oracle):
        want = hierarchical_decomposition(
            graph, seed=5, method=method, kernel=kernel,
            provider=EngineProvider(memo_bytes=0), **options,
        )
    for mine, theirs in zip(got.labels, want.labels):
        np.testing.assert_array_equal(mine, theirs)
    tree = akpw_spanning_tree(
        graph, beta=0.6, seed=5, method=method, kernel=kernel, **options
    )
    with mock.patch.object(
        akpw_module, "_decompose_level", decompose_level_oracle
    ):
        oracle_tree = akpw_spanning_tree(
            graph, beta=0.6, seed=5, method=method, kernel=kernel,
            provider=EngineProvider(memo_bytes=0), **options,
        )
    np.testing.assert_array_equal(
        tree.forest.parent, oracle_tree.forest.parent
    )


def test_a_level_of_identical_pieces_draws_once():
    graph = _copies(grid_2d(3, 4), 12)
    labels = connected_components(graph)
    with mock.patch.object(
        np.random, "default_rng", wraps=np.random.default_rng
    ) as made:
        dec = decompose_level(
            graph, labels, 0.5, root_seed=3, tag="akpw"
        )
    assert made.call_count == 1
    # Each copy got the same draw, so the same local clustering.
    local = (dec.center % 12).reshape(12, 12)
    assert (local == local[0]).all()


# ---------------------------------------------------------------------------
# weighted graphs are refused, not silently unweighted
# ---------------------------------------------------------------------------
def test_labelled_level_refuses_a_weighted_graph():
    weighted = uniform_weights(grid_2d(12, 12), 2.0)
    with pytest.raises(ParameterError, match="unweighted"):
        decompose_level(
            weighted, np.zeros(144, dtype=np.int64), 0.3,
            root_seed=1, tag="hierarchy",
        )
    # Whole, the weighted graph still runs (on the weighted methods).
    decompose_level(weighted, None, 0.3, root_seed=1, tag="akpw")


def test_hierarchy_refuses_a_weighted_graph():
    with pytest.raises(ParameterError, match="requires an unweighted graph"):
        hierarchical_decomposition(uniform_weights(grid_2d(12, 12)), seed=1)


@pytest.mark.parametrize("graph", [grid_2d(12, 12), _copies(grid_2d(3, 3), 4)])
def test_akpw_refuses_a_weighted_graph(graph):
    """Connected or not: the refusal does not depend on the level path."""
    with pytest.raises(ParameterError, match="requires an unweighted graph"):
        akpw_spanning_tree(uniform_weights(graph), seed=1)


# ---------------------------------------------------------------------------
# the O(n) laminarity check against the one it replaced
# ---------------------------------------------------------------------------
def _laminar_oracle(fine: np.ndarray, coarse: np.ndarray) -> bool:
    pairs = np.unique(np.stack([fine, coarse], axis=1), axis=0)
    return np.unique(pairs[:, 0]).shape[0] == pairs.shape[0]


@st.composite
def label_stacks(draw):
    """Two-level stacks: laminar by construction, then maybe perturbed,
    with labels that may be sparse, negative or huge."""
    n = draw(st.integers(1, 40))
    fine = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    merge = np.asarray(
        draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    coarse = merge[fine]  # every fine class inside one coarse class
    if draw(st.booleans()):
        at = draw(st.integers(0, n - 1))
        coarse = coarse.copy()
        coarse[at] = draw(st.integers(0, 7))
    shift = draw(st.sampled_from([0, -3, 10**6, -(2**40)]))
    scale = draw(st.sampled_from([1, 7]))
    return fine * scale + shift, coarse + draw(st.integers(-2, 2))


@given(stack=label_stacks())
@settings(max_examples=200, deadline=None)
def test_laminarity_check_matches_the_unique_rows_check(stack):
    fine, coarse = stack
    n = fine.shape[0]
    finest = np.arange(n, dtype=np.int64)
    laminar = _laminar_oracle(fine, coarse)
    if laminar:
        Hierarchy(labels=[finest, fine, coarse], scale=[1.0, 2.0, 4.0])
    else:
        with pytest.raises(GraphError, match="not laminar"):
            Hierarchy(labels=[finest, fine, coarse], scale=[1.0, 2.0, 4.0])
