"""The level kernel against the per-piece oracle.

:func:`repro.pipeline.levels.decompose_level` decomposes every piece of a
hierarchy or AKPW level in one shifted BFS over the parent graph.  The
per-piece builders it replaced live on in ``tests/level_oracle.py``; the
properties here build each hierarchy and AKPW tree twice — once as the
library does, once with the oracle patched in — and require identical
label stacks and parent arrays, for every shift method and tie-break, on
the numpy kernel and (when built) the native one.
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
from repro.embeddings import hierarchy as hierarchy_module
from repro.embeddings.hierarchy import Hierarchy, hierarchical_decomposition
from repro.errors import GraphError
from repro.graphs.build import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.graphs.ops import induced_subgraph, piece_layout
from repro.lowstretch import akpw as akpw_module
from repro.lowstretch.akpw import akpw_spanning_tree
from repro.pipeline import EngineProvider
from repro.pipeline.levels import decompose_level
from repro.serve.store import csr_digest, graph_digest

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


@st.composite
def graphs(draw):
    """Grids, ER graphs, and disconnected graphs with isolated vertices."""
    kind = draw(st.sampled_from(["grid", "er", "sparse"]))
    if kind == "grid":
        return grid_2d(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    n = draw(st.integers(1, 60))
    if kind == "er":
        p = draw(st.floats(0.02, 0.3))
        return erdos_renyi(n, p, seed=draw(st.integers(0, 2**16)))
    # A few random edges over many vertices: several small components
    # and plenty of isolated vertices.
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    edges = np.asarray(
        [(u, v) for u, v in pairs if u != v], dtype=np.int64
    ).reshape(-1, 2)
    return from_edges(n, edges, dedup=True)


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(
    graph=graphs(),
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
    graph=graphs(),
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


@given(graph=graphs(), data=st.data())
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
