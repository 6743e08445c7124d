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
    "PieceLayout",
    "piece_layout",
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


@dataclass(frozen=True, eq=False)
class PieceLayout:
    """Every label class of a partition laid end to end, in label order.

    ``graph`` is the parent graph with the arcs between classes dropped,
    relabelled so that class ``c`` holds the contiguous ids
    ``bounds[c]..bounds[c+1]−1``: layout id ``i`` stands for parent vertex
    ``order[i]``.  Members are ascending within a class, so the
    relabelling preserves vertex order inside every class, and the rows of
    ``graph`` are sorted.
    """

    #: parent vertex of each layout id (stable sort by label).
    order: np.ndarray
    #: class ``c`` occupies layout ids ``bounds[c]:bounds[c+1]``.
    bounds: np.ndarray
    #: the intra-class arcs in layout ids (a block-diagonal CSR graph).
    graph: CSRGraph

    @property
    def num_pieces(self) -> int:
        return int(self.bounds.shape[0] - 1)

    def piece_arrays(self, label: int) -> tuple[np.ndarray, np.ndarray]:
        """Class ``label``'s induced subgraph as local ``(indptr, indices)``.

        The arrays equal ``induced_subgraph(parent, members).graph``'s,
        byte for byte.
        """
        lo, hi = int(self.bounds[label]), int(self.bounds[label + 1])
        indptr = self.graph.indptr[lo : hi + 1]
        a, b = int(indptr[0]), int(indptr[-1])
        return indptr - a, self.graph.indices[a:b] - lo


def piece_layout(graph: CSRGraph, labels: np.ndarray) -> PieceLayout:
    """Lay out every label class of ``labels`` in one pass.

    The cost is one stable argsort of ``labels``, one filter keeping the
    arcs inside a class, and one sort of packed ``(source, target)`` layout
    keys: O(n + m log m) for the whole partition.
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
    position = np.empty(n, dtype=VERTEX_DTYPE)
    position[order] = np.arange(n, dtype=VERTEX_DTYPE)
    src = graph.arc_sources()
    dst = graph.indices
    keep = labels[src] == labels[dst]
    # Sorting (source, target) layout keys sorts arcs by class, then local
    # source, then local target: layout ids are ordered that way.
    keys = np.sort(position[src[keep]] * max(n, 1) + position[dst[keep]])
    rows, targets = np.divmod(keys, max(n, 1))
    indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return PieceLayout(
        order=order,
        bounds=bounds,
        graph=CSRGraph(indptr, targets, validate=False),
    )


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
    members).graph``, so its digest is too.  The pieces are sliced out of
    one :func:`piece_layout`: O(n + m log m) for the whole partition, where
    a loop of :func:`induced_subgraph` calls costs O(k · m).  They are
    valid by construction and skip ``CSRGraph`` validation.
    """
    layout = piece_layout(graph, labels)
    pieces: list[tuple[np.ndarray, CSRGraph | None]] = []
    for label in range(layout.num_pieces):
        lo, hi = int(layout.bounds[label]), int(layout.bounds[label + 1])
        members = layout.order[lo:hi]
        if hi - lo <= 1:
            pieces.append((members, None))
            continue
        indptr, indices = layout.piece_arrays(label)
        pieces.append((members, CSRGraph(indptr, indices, validate=False)))
    return pieces


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Label vertices by connected component, labels dense in ``0..k−1``.

    Components are numbered by their smallest vertex id, so the output is
    deterministic.  In-memory graphs use vectorised hooking and pointer
    jumping (each round, every tree root hooks under the smallest root
    across its arcs, then every vertex jumps to its root; O(m) numpy work
    per round, O(log n) rounds in practice).  It needs no scipy, so a pool
    worker that builds a hierarchy or a tree never imports it (on CPython
    3.11/x86-64, importing ``scipy.sparse.csgraph`` adds ~22 MiB resident
    and ~0.3 s).
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=VERTEX_DTYPE)
    if graph.num_arcs == 0:
        return np.arange(n, dtype=VERTEX_DTYPE)
    from repro.graphs.backing import backing_kind

    if backing_kind(graph) == "mmap":
        # Hooking holds every arc in RAM — a BFS sweep streams the
        # adjacency instead and produces the identical labelling.
        return _components_bfs(graph)
    parent = np.arange(n, dtype=VERTEX_DTYPE)
    src, dst = graph.arc_sources(), graph.indices
    while True:
        root_src, root_dst = parent[src], parent[dst]
        cross = root_src != root_dst
        if not cross.any():
            break
        # Arcs inside one tree stay inside it; drop them for good.
        src, dst = src[cross], dst[cross]
        # Roots only ever hook under smaller ids, so no cycle forms and
        # each component's root ends as its smallest vertex.
        np.minimum.at(parent, root_src[cross], root_dst[cross])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    is_root = parent == np.arange(n, dtype=VERTEX_DTYPE)
    return (np.cumsum(is_root) - 1)[parent].astype(VERTEX_DTYPE)


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
