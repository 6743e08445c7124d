"""Constructors for :class:`~repro.graphs.csr.CSRGraph`.

All builders are fully vectorised: every arc ``u → v`` is packed into one
``int64`` key ``u * n + v``, so a single ``np.sort`` of the keys both
deduplicates edges and lays arcs out in CSR order (rows ascending, each
neighbour list sorted), following the NumPy-first idiom this library uses
for every O(m) operation.  Packing needs ``n * n`` to fit an ``int64``,
which caps graphs at :data:`MAX_PACKED_VERTICES` vertices.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph

__all__ = [
    "from_edges",
    "from_arcs",
    "from_adjacency",
    "empty_graph",
    "from_networkx",
    "to_networkx",
    "MAX_PACKED_VERTICES",
]

#: Largest vertex count whose packed arc keys ``u * n + v`` (at most
#: ``n * n - 1``) fit an ``int64``.
MAX_PACKED_VERTICES = 3_037_000_499


def check_packable(num_vertices: int) -> None:
    """Raise :class:`GraphError` if ``u * n + v`` keys overflow ``int64``.

    Builders call this before allocating anything ``n``-sized.
    """
    if num_vertices > MAX_PACKED_VERTICES:
        raise GraphError(
            f"num_vertices {num_vertices} exceeds {MAX_PACKED_VERTICES}: "
            "packed int64 arc keys would overflow"
        )


def from_edges(
    num_vertices: int,
    edges: np.ndarray | Sequence[tuple[int, int]],
    *,
    dedup: bool = True,
) -> CSRGraph:
    """Build an undirected graph from an edge list.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; edges must reference ids in ``[0, n)``.
    edges:
        ``(m, 2)`` integer array (or sequence of pairs).  Orientation is
        irrelevant; both arcs are stored.  Self-loops are rejected.
    dedup:
        Remove duplicate edges (the default).  Pass ``False`` only when the
        caller guarantees uniqueness, to skip the dedup pass.
    """
    if num_vertices < 0:
        raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
    check_packable(num_vertices)
    arr = np.asarray(edges, dtype=VERTEX_DTYPE)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {arr.shape}")
    if arr.shape[0]:
        if arr.min() < 0 or arr.max() >= num_vertices:
            raise GraphError("edge endpoints out of range")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise GraphError("self-loops are not allowed")
    u, v = arr[:, 0], arr[:, 1]
    keys = np.concatenate([u * num_vertices + v, v * num_vertices + u])
    keys.sort()
    if not dedup:
        # Duplicates stay; the validator rejects them as parallel edges.
        return _csr_from_sorted_keys(num_vertices, keys)
    # A repeated edge, in either orientation, repeats both of its arc keys.
    keys = drop_repeats(keys)
    # Both arcs of every in-range, loop-free, distinct edge: valid by
    # construction, so the CSR validator's two sorts are skipped.
    return _csr_from_sorted_keys(num_vertices, keys, validate=False)


def from_arcs(num_vertices: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Build a graph from pre-symmetrised arc arrays (both directions given).

    The arc multiset must already be symmetric; this is validated by the
    :class:`CSRGraph` constructor.  Used by internal transformations that
    already hold both arc directions (e.g. subgraph extraction).
    """
    src = np.asarray(src, dtype=VERTEX_DTYPE)
    dst = np.asarray(dst, dtype=VERTEX_DTYPE)
    if src.shape != dst.shape:
        raise GraphError("src and dst must have equal shapes")
    return _csr_from_arc_arrays(num_vertices, src, dst)


def _csr_from_arc_arrays(
    num_vertices: int, src: np.ndarray, dst: np.ndarray
) -> CSRGraph:
    """Bucket arcs into CSR by sorting their packed ``src * n + dst`` keys."""
    check_packable(num_vertices)
    if src.shape[0] and (
        min(src.min(), dst.min()) < 0
        or max(src.max(), dst.max()) >= num_vertices
    ):
        raise GraphError("arc endpoints out of range")
    keys = src * num_vertices + dst
    keys.sort()
    return _csr_from_sorted_keys(num_vertices, keys)


def drop_repeats(keys: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` without adjacent repeats: ``np.unique`` for keys
    already sorted, which ``np.unique`` itself took ~20× longer to do on
    160k int64 keys with numpy 2.4."""
    if not keys.shape[0]:
        return keys
    fresh = np.empty(keys.shape[0], dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def csr_arrays_from_keys(
    num_vertices: int, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` from ascending packed arc keys ``src * n + dst``.

    Ascending keys put rows in order and sort each neighbour list, so the
    result is canonical CSR.
    """
    src, indices = np.divmod(keys, max(num_vertices, 1))
    indptr = np.zeros(num_vertices + 1, dtype=VERTEX_DTYPE)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return indptr, indices


def _csr_from_sorted_keys(
    num_vertices: int, keys: np.ndarray, *, validate: bool = True
) -> CSRGraph:
    indptr, indices = csr_arrays_from_keys(num_vertices, keys)
    return CSRGraph(indptr, indices, validate=validate)


def from_adjacency(adjacency: Sequence[Iterable[int]]) -> CSRGraph:
    """Build a graph from an adjacency-list-of-iterables representation.

    Each ``adjacency[v]`` lists the neighbours of ``v``.  The input may list
    each edge in one or both directions; symmetrisation and dedup are applied.
    """
    n = len(adjacency)
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for v, nbrs in enumerate(adjacency):
        nbr_arr = np.fromiter((int(x) for x in nbrs), dtype=VERTEX_DTYPE)
        if nbr_arr.size:
            src_parts.append(np.full(nbr_arr.shape, v, dtype=VERTEX_DTYPE))
            dst_parts.append(nbr_arr)
    if not src_parts:
        return empty_graph(n)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    edges = np.stack([src, dst], axis=1)
    return from_edges(n, edges)


def empty_graph(num_vertices: int) -> CSRGraph:
    """Graph with ``num_vertices`` vertices and no edges."""
    if num_vertices < 0:
        raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
    return CSRGraph(
        np.zeros(num_vertices + 1, dtype=VERTEX_DTYPE),
        np.zeros(0, dtype=VERTEX_DTYPE),
    )


def from_networkx(nx_graph) -> CSRGraph:  # pragma: no cover - thin adapter
    """Convert a ``networkx.Graph`` with integer-labelled nodes ``0..n-1``.

    Provided for interoperability in tests and examples; the library itself
    never depends on networkx.
    """
    n = nx_graph.number_of_nodes()
    edges = np.array(
        [(int(u), int(v)) for u, v in nx_graph.edges()], dtype=VERTEX_DTYPE
    ).reshape(-1, 2)
    return from_edges(n, edges)


def to_networkx(graph: CSRGraph):  # pragma: no cover - thin adapter
    """Convert to a ``networkx.Graph`` (test/benchmark cross-validation)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(map(tuple, graph.edge_array()))
    return g
