"""Graph transformations and queries on CSR graphs.

These are the structural operations the decomposition pipeline composes:
induced subgraphs (verifying *strong* diameter requires the piece-induced
subgraph; :func:`split_by_labels` carves every piece of a partition in one
pass), quotient/contraction (AKPW low-stretch trees contract pieces into
supervertices each round), and connected components (validity checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.build import from_arcs, from_edges
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph

__all__ = [
    "induced_subgraph",
    "SubgraphResult",
    "split_by_labels",
    "connected_components",
    "num_components",
    "is_connected",
    "quotient_graph",
    "QuotientResult",
    "cut_edge_mask",
    "count_cut_edges",
    "degree_statistics",
]


@dataclass(frozen=True, eq=False)
class SubgraphResult:
    """An induced subgraph plus the vertex-id mappings in both directions."""

    graph: CSRGraph
    #: original id of each subgraph vertex (length = subgraph n).
    original_ids: np.ndarray
    #: new id for each original vertex, −1 if not in the subgraph (length n).
    new_ids: np.ndarray


def induced_subgraph(graph: CSRGraph, vertices: np.ndarray) -> SubgraphResult:
    """Extract the subgraph induced by ``vertices``.

    Fully vectorised: arcs whose endpoints both lie in the vertex set are
    kept and relabelled through a lookup table.
    """
    vertices = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
    if vertices.size and (
        vertices[0] < 0 or vertices[-1] >= graph.num_vertices
    ):
        raise GraphError("subgraph vertex ids out of range")
    new_ids = np.full(graph.num_vertices, -1, dtype=VERTEX_DTYPE)
    new_ids[vertices] = np.arange(vertices.size, dtype=VERTEX_DTYPE)
    src = graph.arc_sources()
    dst = graph.indices
    keep = (new_ids[src] >= 0) & (new_ids[dst] >= 0)
    sub = from_arcs(vertices.size, new_ids[src[keep]], new_ids[dst[keep]])
    return SubgraphResult(graph=sub, original_ids=vertices, new_ids=new_ids)


def split_by_labels(
    graph: CSRGraph, labels: np.ndarray
) -> list[tuple[np.ndarray, CSRGraph | None]]:
    """Induced subgraph of every label class, built in one pass.

    Returns one ``(members, piece)`` pair per label ``0..k−1``, in label
    order: ``members`` holds the class's vertex ids in ascending order and
    ``piece`` is the subgraph they induce, with vertex ``i`` standing for
    ``members[i]``.  Classes of at most one vertex get ``piece=None`` —
    they have no arcs, and callers treat them locally.

    Each piece is byte-identical to ``induced_subgraph(graph,
    members).graph``, so its digest is too.  The cost is one stable
    argsort of ``labels``, one filter keeping the arcs inside a class, and
    one ``lexsort`` by (class, local source, local target): O(n + m log m)
    for the whole partition, where a loop of :func:`induced_subgraph` calls
    costs O(k · m).
    """
    labels = np.asarray(labels, dtype=VERTEX_DTYPE)
    n = graph.num_vertices
    if labels.shape != (n,):
        raise GraphError("labels length must equal num_vertices")
    if n and labels.min() < 0:
        raise GraphError("labels must be non-negative")
    k = int(labels.max()) + 1 if n else 0
    order = np.argsort(labels, kind="stable")
    bounds = np.zeros(k + 1, dtype=VERTEX_DTYPE)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    # local[v]: v's rank inside its class.  Members are ascending within a
    # class (stable sort), exactly as induced_subgraph numbers them.
    local = np.empty(n, dtype=VERTEX_DTYPE)
    local[order] = np.arange(n, dtype=VERTEX_DTYPE) - np.repeat(
        bounds[:-1], np.diff(bounds)
    )
    src = graph.arc_sources()
    dst = graph.indices
    keep = labels[src] == labels[dst]
    src, dst = src[keep], dst[keep]
    piece_of_arc = labels[src]
    arc_order = np.lexsort((local[dst], local[src], piece_of_arc))
    targets = local[dst][arc_order]
    arc_bounds = np.zeros(k + 1, dtype=VERTEX_DTYPE)
    np.cumsum(np.bincount(piece_of_arc, minlength=k), out=arc_bounds[1:])
    # In-class degree of every vertex, listed in (class, local id) order.
    degrees = np.bincount(src, minlength=n).astype(VERTEX_DTYPE)[order]
    pieces: list[tuple[np.ndarray, CSRGraph | None]] = []
    for label in range(k):
        lo, hi = int(bounds[label]), int(bounds[label + 1])
        members = order[lo:hi]
        if hi - lo <= 1:
            pieces.append((members, None))
            continue
        indptr = np.zeros(hi - lo + 1, dtype=VERTEX_DTYPE)
        np.cumsum(degrees[lo:hi], out=indptr[1:])
        indices = targets[arc_bounds[label] : arc_bounds[label + 1]]
        pieces.append((members, CSRGraph(indptr, indices)))
    return pieces


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Label vertices by connected component, labels dense in ``0..k−1``.

    Delegates to ``scipy.sparse.csgraph`` (union-find in C): component
    labelling is a substrate operation, not part of the paper's contribution,
    so we use the fastest exact primitive available.  Labels are renumbered
    by smallest contained vertex id so the output is deterministic.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=VERTEX_DTYPE)
    if graph.num_arcs == 0:
        return np.arange(n, dtype=VERTEX_DTYPE)
    from repro.graphs.backing import backing_kind

    if backing_kind(graph) == "mmap":
        # scipy's csr_matrix copies the index arrays (and may downcast
        # them), materialising O(m) in RAM — a BFS sweep streams the
        # adjacency instead and produces the identical labelling
        # (components numbered by smallest contained vertex).
        return _components_bfs(graph)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as _scipy_cc

    mat = csr_matrix(
        (
            np.ones(graph.num_arcs, dtype=np.int8),
            graph.indices,
            graph.indptr,
        ),
        shape=(n, n),
    )
    _, raw = _scipy_cc(mat, directed=False)
    # Renumber by first appearance for a canonical labelling.
    _, first = np.unique(raw, return_index=True)
    order = np.argsort(first)
    remap = np.empty_like(order)
    remap[order] = np.arange(order.size)
    return remap[raw].astype(VERTEX_DTYPE)


def _components_bfs(graph: CSRGraph) -> np.ndarray:
    """Component labels via BFS sweeps — O(n) resident, arcs streamed."""
    from repro.bfs.sequential import multi_source_bfs

    n = graph.num_vertices
    labels = np.full(n, -1, dtype=VERTEX_DTYPE)
    next_label = 0
    for root in range(n):
        if labels[root] >= 0:
            continue
        res = multi_source_bfs(graph, np.asarray([root], dtype=np.int64))
        labels[res.dist >= 0] = next_label
        next_label += 1
    return labels


def num_components(graph: CSRGraph) -> int:
    """Number of connected components."""
    if graph.num_vertices == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def is_connected(graph: CSRGraph) -> bool:
    """Whether the graph is connected (empty graph counts as connected)."""
    return graph.num_vertices <= 1 or num_components(graph) == 1


@dataclass(frozen=True, eq=False)
class QuotientResult:
    """Result of contracting clusters into supervertices.

    ``graph`` is simple (parallel edges collapsed, self-loops dropped).
    ``edge_multiplicity[i]`` counts how many original edges the i-th quotient
    edge represents, aligned with ``graph.edge_array()`` order.
    ``representative_edge`` maps each quotient edge to one original endpoint
    pair ``(u, v)`` realising it — needed by spanner construction, which must
    add a concrete original edge per cluster pair.
    """

    graph: CSRGraph
    edge_multiplicity: np.ndarray
    representative_edge: np.ndarray


#: arcs per block when the quotient streams over a memmap graph.
_QUOTIENT_CHUNK_ARCS = 4 * 1024 * 1024


def quotient_graph(
    graph: CSRGraph,
    labels: np.ndarray,
    *,
    chunk_arcs: int | None = None,
) -> QuotientResult:
    """Contract each label class to a supervertex.

    ``labels`` must be dense ``0..k−1`` over all vertices (as produced by the
    decomposition assignment after compaction).

    Memmap-backed graphs (and any call passing ``chunk_arcs``) are
    contracted by a streaming row-block scan that never materialises the
    full edge array — peak memory is one arc block plus the quotient
    itself, not ``O(m)``.  The result is bit-identical to the in-memory
    path: adjacency rows are sorted, so upper-triangle arcs in row-major
    order *are* the canonical ``edge_array()`` order, and per-block
    uniques merge associatively (first representative wins, counts sum).
    """
    labels = np.asarray(labels, dtype=VERTEX_DTYPE)
    if labels.shape[0] != graph.num_vertices:
        raise GraphError("labels length must equal num_vertices")
    k = int(labels.max()) + 1 if labels.size else 0
    if labels.size and labels.min() < 0:
        raise GraphError("labels must be non-negative")
    if graph.num_arcs == 0:
        return QuotientResult(
            graph=from_edges(k, np.zeros((0, 2), dtype=VERTEX_DTYPE)),
            edge_multiplicity=np.zeros(0, dtype=np.int64),
            representative_edge=np.zeros((0, 2), dtype=VERTEX_DTYPE),
        )
    if chunk_arcs is None:
        from repro.graphs.backing import backing_kind

        if backing_kind(graph) == "mmap":
            chunk_arcs = _QUOTIENT_CHUNK_ARCS
    if chunk_arcs is not None:
        return _quotient_streamed(graph, labels, k, int(chunk_arcs))
    edges = graph.edge_array()
    lu = labels[edges[:, 0]]
    lv = labels[edges[:, 1]]
    cross = lu != lv
    lo = np.minimum(lu[cross], lv[cross])
    hi = np.maximum(lu[cross], lv[cross])
    orig = edges[cross]
    keys = lo * k + hi
    uniq_keys, first_idx, counts = np.unique(
        keys, return_index=True, return_counts=True
    )
    return _quotient_result(k, uniq_keys, counts, orig[first_idx])


def _quotient_result(
    k: int, keys: np.ndarray, counts: np.ndarray, reps: np.ndarray
) -> QuotientResult:
    q_edges = np.stack([keys // k, keys % k], axis=1).astype(VERTEX_DTYPE)
    qg = from_edges(k, q_edges, dedup=False)
    # from_edges sorts edges canonically; keys are already sorted by
    # (lo, hi) so multiplicities/representatives align with edge_array order.
    return QuotientResult(
        graph=qg,
        edge_multiplicity=counts.astype(np.int64),
        representative_edge=np.asarray(reps, dtype=VERTEX_DTYPE),
    )


def _quotient_streamed(
    graph: CSRGraph, labels: np.ndarray, k: int, chunk_arcs: int
) -> QuotientResult:
    """Row-block streaming contraction (see :func:`quotient_graph`)."""
    indptr = graph.indptr
    indices = graph.indices
    n = graph.num_vertices
    acc_keys: np.ndarray | None = None
    acc_counts: np.ndarray | None = None
    acc_reps: np.ndarray | None = None
    v0 = 0
    while v0 < n:
        p0 = int(indptr[v0])
        # Largest row range fitting the arc budget — always ≥ 1 row so a
        # single huge row still streams (as one oversized block).
        v1 = int(np.searchsorted(indptr, p0 + chunk_arcs, side="right")) - 1
        v1 = min(n, max(v1, v0 + 1))
        p1 = int(indptr[v1])
        dst = np.asarray(indices[p0:p1])
        deg = np.diff(np.asarray(indptr[v0 : v1 + 1]))
        src = np.repeat(np.arange(v0, v1, dtype=VERTEX_DTYPE), deg)
        keep = src < dst
        src, dst = src[keep], dst[keep]
        lu, lv = labels[src], labels[dst]
        cross = lu != lv
        if cross.any():
            lo = np.minimum(lu[cross], lv[cross])
            hi = np.maximum(lu[cross], lv[cross])
            keys = lo * k + hi
            uniq, first, counts = np.unique(
                keys, return_index=True, return_counts=True
            )
            reps = np.stack([src[cross][first], dst[cross][first]], axis=1)
            if acc_keys is None:
                acc_keys, acc_counts, acc_reps = uniq, counts, reps
            else:
                # Accumulated entries first: np.unique's return_index
                # picks the earliest occurrence, so a key seen in an
                # earlier block keeps its (canonical-order-first)
                # representative while the counts sum.
                all_keys = np.concatenate([acc_keys, uniq])
                merged, first_idx, inverse = np.unique(
                    all_keys, return_index=True, return_inverse=True
                )
                summed = np.zeros(merged.size, dtype=np.int64)
                np.add.at(
                    summed, inverse, np.concatenate([acc_counts, counts])
                )
                acc_keys = merged
                acc_counts = summed
                acc_reps = np.concatenate([acc_reps, reps])[first_idx]
        v0 = v1
    if acc_keys is None:
        return QuotientResult(
            graph=from_edges(k, np.zeros((0, 2), dtype=VERTEX_DTYPE)),
            edge_multiplicity=np.zeros(0, dtype=np.int64),
            representative_edge=np.zeros((0, 2), dtype=VERTEX_DTYPE),
        )
    return _quotient_result(k, acc_keys, acc_counts, acc_reps)


def cut_edge_mask(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """Boolean mask over ``graph.edge_array()`` rows: True where the edge's
    endpoints carry different labels."""
    labels = np.asarray(labels)
    if labels.shape[0] != graph.num_vertices:
        raise GraphError("labels length must equal num_vertices")
    edges = graph.edge_array()
    return labels[edges[:, 0]] != labels[edges[:, 1]]


def count_cut_edges(graph: CSRGraph, labels: np.ndarray) -> int:
    """Number of edges whose endpoints lie in different label classes.

    One O(n + m) scan over the stored arcs: every undirected edge is stored
    as both of its arcs, so crossing arcs are exactly twice the cut edges.
    Unlike :func:`cut_edge_mask` this needs no canonical (sorted) edge
    array, and the count does not depend on neighbour order.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != graph.num_vertices:
        raise GraphError("labels length must equal num_vertices")
    source_labels = np.repeat(labels, graph.degrees())
    return int(np.count_nonzero(source_labels != labels[graph.indices])) // 2


def degree_statistics(graph: CSRGraph) -> dict[str, float]:
    """Summary degree statistics for benchmark reporting."""
    if graph.num_vertices == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}
    d = graph.degrees()
    return {
        "min": float(d.min()),
        "max": float(d.max()),
        "mean": float(d.mean()),
        "std": float(d.std()),
    }
