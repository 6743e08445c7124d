"""Immutable CSR (compressed sparse row) graph structure.

The whole library operates on :class:`CSRGraph`: an undirected, unweighted
graph stored as two NumPy arrays, the standard representation used by
shared-memory parallel graph frameworks (Ligra, GBBS) that this reproduction
models.  Both arc directions of every undirected edge are stored, so vertex
``v``'s neighbourhood is the contiguous slice
``indices[indptr[v]:indptr[v + 1]]`` — the layout that makes level-synchronous
frontier expansion a pure gather/scatter.

Construction helpers live in :mod:`repro.graphs.build`; synthetic families in
:mod:`repro.graphs.generators`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph"]

#: dtype used for vertex ids throughout the library.
VERTEX_DTYPE = np.int64


class CSRGraph:
    """An immutable undirected, unweighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the arcs of vertex ``v`` occupy
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of length ``2m`` holding neighbour ids.  Every
        undirected edge ``{u, v}`` must appear as both arc ``u→v`` and arc
        ``v→u``.
    validate:
        When true (the default) the arrays are checked for structural
        validity; pass ``False`` only from trusted internal constructors.

    Notes
    -----
    Instances are logically immutable: the underlying arrays are marked
    read-only, so accidental mutation raises immediately rather than
    corrupting shared state between algorithm stages.
    """

    # _digest memoizes repro.serve.store.graph_digest on the graph itself
    # (the arrays are read-only, so it never goes stale).  __weakref__ lets
    # registries key metadata (e.g. a graph's backing) on graph objects
    # without pinning them in memory.
    __slots__ = ("_indptr", "_indices", "_num_vertices", "_num_edges",
                 "_digest", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=VERTEX_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=VERTEX_DTYPE)
        if validate:
            _validate_csr(indptr, indices)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._num_vertices = int(indptr.shape[0] - 1)
        self._num_edges = int(indices.shape[0] // 2)
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Read-only ``int64`` offsets array of length ``n + 1``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only ``int64`` neighbour array of length ``2m``."""
        return self._indices

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges ``m`` (half the stored arcs)."""
        return self._num_edges

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs, ``2m``."""
        return int(self._indices.shape[0])

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (length ``n``)."""
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of ``v``'s neighbour ids."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present.

        Uses binary search when the adjacency slice is sorted-compatible;
        CSR graphs built through :mod:`repro.graphs.build` always sort
        neighbour lists.
        """
        if not (0 <= u < self._num_vertices and 0 <= v < self._num_vertices):
            return False
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.shape[0] and nbrs[pos] == v)

    # ------------------------------------------------------------------
    # edge views
    # ------------------------------------------------------------------
    def arc_sources(self) -> np.ndarray:
        """Source vertex of every stored arc (length ``2m``).

        Computed as ``repeat(arange(n), degrees)`` — the inverse of the CSR
        offsets.  Useful for fully vectorised edge-parallel computations.
        """
        return np.repeat(
            np.arange(self._num_vertices, dtype=VERTEX_DTYPE), self.degrees()
        )

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` array of undirected edges with ``u < v`` in each row.

        Rows are sorted lexicographically, making the output canonical: two
        graphs are equal iff their edge arrays are equal.
        """
        src = self.arc_sources()
        dst = self._indices
        keep = src < dst
        edges = np.stack([src[keep], dst[keep]], axis=1)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        return edges[order]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` tuples with ``u < v``."""
        for u, v in self.edge_array():
            yield int(u), int(v)

    # ------------------------------------------------------------------
    # array transport (shared-memory runtime)
    # ------------------------------------------------------------------
    def csr_arrays(self) -> dict[str, np.ndarray]:
        """The defining arrays keyed by constructor parameter name.

        This is the transport contract used by :mod:`repro.runtime.shm` to
        place a graph in shared memory and reattach it zero-copy in worker
        processes; subclasses extend the dict with their extra arrays
        (:class:`~repro.graphs.weighted.WeightedCSRGraph` adds ``weights``).
        """
        return {"indptr": self._indptr, "indices": self._indices}

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], *, validate: bool = False
    ) -> "CSRGraph":
        """Rebuild a graph from a :meth:`csr_arrays`-shaped dict.

        With ``validate=False`` (the default — the arrays came from a graph
        that was already validated) construction is zero-copy when the
        arrays are contiguous and correctly typed, which is what makes
        shared-memory reattachment free.
        """
        return cls(validate=validate, **arrays)

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self._num_vertices, self._num_edges, self._indices[:16].tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self._num_vertices}, m={self._num_edges})"
        )

    def memory_bytes(self) -> int:
        """Bytes used by the CSR arrays (for benchmark reporting)."""
        return int(self._indptr.nbytes + self._indices.nbytes)


def _validate_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    """Raise :class:`GraphError` unless the arrays form a valid symmetric CSR."""
    if indptr.ndim != 1 or indices.ndim != 1:
        raise GraphError("indptr and indices must be one-dimensional arrays")
    if indptr.shape[0] < 1:
        raise GraphError("indptr must have length >= 1 (n + 1 entries)")
    if indptr[0] != 0:
        raise GraphError(f"indptr[0] must be 0, got {indptr[0]}")
    if indptr[-1] != indices.shape[0]:
        raise GraphError(
            f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
            f"({indices.shape[0]})"
        )
    if np.any(np.diff(indptr) < 0):
        raise GraphError("indptr must be non-decreasing")
    n = indptr.shape[0] - 1
    if indices.shape[0]:
        if indices.min() < 0 or indices.max() >= n:
            raise GraphError("indices contain out-of-range vertex ids")
    if indices.shape[0] % 2 != 0:
        raise GraphError(
            "odd number of arcs: undirected CSR must store both directions"
        )
    # Symmetry check: the multiset of (src, dst) arcs must equal the multiset
    # of (dst, src) arcs.  Sorting both sides gives a vectorised comparison.
    src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), np.diff(indptr))
    fwd = np.sort(src * n + indices)
    rev = np.sort(indices * n + src)
    if not np.array_equal(fwd, rev):
        raise GraphError("adjacency is not symmetric (missing reverse arcs)")
    if fwd.shape[0] and np.any(fwd[1:] == fwd[:-1]):
        raise GraphError("parallel edges are not allowed (simple graphs only)")
    if np.any(src == indices):
        raise GraphError("self-loops are not allowed")
